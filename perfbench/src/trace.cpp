#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

int thread_slot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1);
  return slot;
}

int Tracer::add(std::string name, Ns start, Ns end, int parent,
                std::uint64_t id, int tid) {
  if (!enabled_) return -1;
  Span s{std::move(name), start, end, parent, id,
         tid < 0 ? thread_slot() : tid};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::name_thread(int tid, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[tid] = std::move(name);
}

std::vector<SelfTime> Tracer::self_times() const {
  return perfbench::self_times(spans_);
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<Ns, Ns>> iv;
    for (const int c : children[i]) {
      const Ns a = std::max(s.start, spans[static_cast<std::size_t>(c)].start);
      const Ns b = std::min(s.end, spans[static_cast<std::size_t>(c)].end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    Ns covered = 0;
    Ns cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (cur_b < a) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_ms += ns_to_ms(s.end - s.start);
    t.self_ms += ns_to_ms(s.end - s.start - covered);
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

bool Tracer::write_chrome_json(
    const std::string& path,
    const std::map<std::string, std::string>& meta) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\": \"ms\", \"otherData\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    os << (first ? "" : ", ") << '"' << json_escape(k) << "\": \""
       << json_escape(v) << '"';
    first = false;
  }
  os << "},\n\"traceEvents\": [\n";
  first = true;
  for (const auto& [tid, name] : thread_names_) {
    os << (first ? "" : ",\n")
       << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << tid << ", \"args\": {\"name\": \"" << json_escape(name) << "\"}}";
    first = false;
  }
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string cat = s.name.substr(0, s.name.find('.'));
    std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(s.start) * 1e-3,
                  static_cast<double>(s.end - s.start) * 1e-3);
    os << (first ? "" : ",\n") << "{\"name\": \"" << json_escape(s.name)
       << "\", \"cat\": \"" << json_escape(cat) << "\", \"ph\": \"X\", "
       << buf << ", \"pid\": 1, \"tid\": " << s.tid
       << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
       << ", \"id\": " << s.id << "}}";
    first = false;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
