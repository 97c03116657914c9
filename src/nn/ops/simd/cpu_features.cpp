#include "nn/ops/simd/cpu_features.h"

#include <cstdlib>

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMDDP
#define HWCAP_ASIMDDP (1UL << 20)
#endif
#endif

namespace qmcu::nn::ops::simd {

namespace {

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return false;
  return !(v[0] == '0' && v[1] == '\0');
}

bool force_scalar() { return env_truthy("QMCU_FORCE_SCALAR"); }

Isa detect() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return Isa::Avx2;
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  // NEON is a baseline feature of every aarch64 core this builds for; the
  // compile-time macro is the runtime truth.
  return Isa::Neon;
#endif
  return Isa::None;
}

DotIsa detect_dot() {
  switch (detect()) {
    case Isa::None:
      return DotIsa::None;
    case Isa::Avx2:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__) && \
    (defined(__clang__) ? __clang_major__ >= 12 : __GNUC__ >= 11)
      // The VEX-encoded vpdpbusd (Alder Lake / Sapphire Rapids onwards).
      // AVX512-VNNI-only parts (Ice Lake server) lack the VEX form, so
      // they stay on the pair-madd table.
      if (__builtin_cpu_supports("avxvnni")) return DotIsa::AvxVnni;
#endif
      return DotIsa::None;
    case Isa::Neon:
#if defined(__aarch64__) && defined(__linux__)
      if (getauxval(AT_HWCAP) & HWCAP_ASIMDDP) return DotIsa::NeonDot;
#elif defined(__ARM_FEATURE_DOTPROD)
      // No hwcap interface (e.g. Apple silicon): the whole binary was
      // compiled for dotprod hardware, so the macro is the runtime truth.
      return DotIsa::NeonDot;
#endif
      return DotIsa::None;
  }
  return DotIsa::None;
}

}  // namespace

// Only the hardware probes are latched; QMCU_FORCE_SCALAR is read live.
Isa detected_isa() {
  static const Isa isa = detect();
  return force_scalar() ? Isa::None : isa;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Avx2:
      return "avx2";
    case Isa::Neon:
      return "neon";
    case Isa::None:
      break;
  }
  return "none";
}

bool available() { return detected_isa() != Isa::None; }

DotIsa detected_dot_isa() {
  static const DotIsa isa = detect_dot();
  return force_scalar() ? DotIsa::None : isa;
}

const char* dot_isa_name(DotIsa isa) {
  switch (isa) {
    case DotIsa::AvxVnni:
      return "avx-vnni";
    case DotIsa::NeonDot:
      return "neon-dot";
    case DotIsa::None:
      break;
  }
  return "none";
}

bool dot_forced_off() { return env_truthy("QMCU_FORCE_NO_DOT"); }

// dot_available() lives in simd_kernels.cpp next to the tables it checks.

}  // namespace qmcu::nn::ops::simd
