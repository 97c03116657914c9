// serialize.h — binary model (de)serialization.
//
// Format "QMCU" v2, little-endian, self-contained: graph topology, layer
// geometry, float parameters, and optionally an ActivationQuantConfig (the
// deployment package a converter would hand to the device runtime). Each
// stream frames its payload with an explicit byte count, an endianness
// sentinel, and a trailing CRC32, so truncated or bit-flipped files are
// rejected before any payload byte is interpreted. Loading then validates
// structural invariants through the regular Graph construction API, so a
// corrupted file fails loudly instead of producing a malformed graph.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/compiled_model.h"
#include "nn/graph.h"

namespace qmcu::nn {

// --- whole-model files -----------------------------------------------------
void save_graph(const Graph& g, const std::string& path);
Graph load_graph(const std::string& path);

// --- stream variants (testable without touching the filesystem) ------------
// `include_parameters = false` writes every layer parameterless (topology
// and geometry only) — the plan-artifact writer uses it because weights
// travel in their own zero-copy sections. read_graph handles both forms.
void write_graph(const Graph& g, std::ostream& os,
                 bool include_parameters = true);
Graph read_graph(std::istream& is);

// --- quantization configs ----------------------------------------------------
void save_quant_config(const ActivationQuantConfig& cfg,
                       const std::string& path);
ActivationQuantConfig load_quant_config(const std::string& path);
void write_quant_config(const ActivationQuantConfig& cfg, std::ostream& os);
ActivationQuantConfig read_quant_config(std::istream& is);

}  // namespace qmcu::nn
