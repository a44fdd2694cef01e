#include "serve/net/envelope.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "geom/stack_spec.hpp"
#include "thermal/model3d.hpp"

namespace liquid3d {

namespace {

constexpr std::string_view kMagic = "liquid3d-serve";

// Decoding works on views into the frame payload and builds diagnostic text
// only on a throw path: `what` is the static "serve request"/"serve
// response" prefix, `key` names the field.

std::string field_name(const char* what, std::string_view key) {
  std::string s(what);
  s += ": ";
  s += key;
  return s;
}

[[noreturn]] void reject(const char* what, std::string_view message) {
  throw ConfigError(std::string(what) + ": " + std::string(message));
}

// -- scalar parsing -----------------------------------------------------------
// std::from_chars first.  Anything it does not take whole (sign, leading
// space, hex, out of range, a trailing byte) and every NaN (its payload and
// sign are strtod's business) retries through the strict parse_double /
// parse_u64, so the accepted spellings and the decoded bits are exactly
// theirs — both round correctly, so a from_chars success is the same bits.

double read_f64(std::string_view v, const char* what, std::string_view key) {
  double out = 0.0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (ec == std::errc() && ptr == end && !std::isnan(out)) return out;
  return parse_double(std::string(v), field_name(what, key));
}

std::uint64_t read_u64(std::string_view v, const char* what, std::string_view key) {
  std::uint64_t out = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out, 10);
  if (ec == std::errc() && ptr == end) return out;
  return parse_u64(std::string(v), field_name(what, key));
}

bool read_flag(std::string_view v, const char* what, std::string_view key) {
  if (v == "1") return true;
  if (v == "0") return false;
  throw ConfigError(field_name(what, key) + " must be 0 or 1, got '" +
                    std::string(v) + "'");
}

void read_f64_list(std::string_view s, const char* what, std::string_view key,
                   std::vector<double>& out) {
  out.clear();
  for (std::size_t pos = 0; pos <= s.size();) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    out.push_back(read_f64(s.substr(pos, comma - pos), what, key));
    pos = comma + 1;
  }
}

/// Splits `s` at `sep` into `out`; returns the field count, which exceeds
/// N when `s` has too many fields (the caller rejects any count but N).
template <std::size_t N>
std::size_t split(std::string_view s, char sep, std::array<std::string_view, N>& out) {
  std::size_t n = 0;
  for (std::size_t pos = 0; pos <= s.size(); ++n) {
    const std::size_t end = std::min(s.find(sep, pos), s.size());
    if (n < N) out[n] = s.substr(pos, end - pos);
    pos = end + 1;
  }
  return n;
}

std::string percent_decode(std::string_view token, const char* what,
                           std::string_view key) {
  auto hex_digit = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string raw;
  raw.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      raw += token[i];
      continue;
    }
    const int hi = i + 2 < token.size() ? hex_digit(token[i + 1]) : -1;
    const int lo = i + 2 < token.size() ? hex_digit(token[i + 2]) : -1;
    if (hi < 0 || lo < 0) {
      throw ConfigError(field_name(what, key) + ": malformed %XX escape in '" +
                        std::string(token) + "'");
    }
    raw += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return raw;
}

// -- enum spellings -----------------------------------------------------------

const char* cooling_name(CoolingMode m) {
  switch (m) {
    case CoolingMode::kAir: return "air";
    case CoolingMode::kLiquidMax: return "liquid-max";
    case CoolingMode::kLiquidVar: return "liquid-var";
  }
  return "?";
}

CoolingMode cooling_from_name(std::string_view s, const char* what) {
  if (s == "air") return CoolingMode::kAir;
  if (s == "liquid-max") return CoolingMode::kLiquidMax;
  if (s == "liquid-var") return CoolingMode::kLiquidVar;
  reject(what, "unknown cooling mode '" + std::string(s) + "'");
}

FlowDeliveryMode delivery_from_name(std::string_view s, const char* what) {
  if (s == "paper-nominal") return FlowDeliveryMode::kPaperNominal;
  if (s == "pressure-limited") return FlowDeliveryMode::kPressureLimited;
  reject(what, "unknown delivery mode '" + std::string(s) + "'");
}

WireErrorCode error_code_from_name(std::string_view s, const char* what) {
  if (s == "bad-request") return WireErrorCode::kBadRequest;
  if (s == "overloaded") return WireErrorCode::kOverloaded;
  if (s == "deadline-exceeded") return WireErrorCode::kDeadlineExceeded;
  if (s == "shutting-down") return WireErrorCode::kShuttingDown;
  if (s == "solver") return WireErrorCode::kSolver;
  if (s == "internal") return WireErrorCode::kInternal;
  reject(what, "unknown error code '" + std::string(s) + "'");
}

// -- key/value writer ---------------------------------------------------------
// Appends straight into one reserved buffer.  Numbers go through
// std::to_chars: integers in decimal, doubles as the shortest string that
// round-trips to the same bits.

struct Writer {
  std::string out;

  Writer() { out.reserve(2048); }  // a steady request is ~1.5 KB

  template <class T>
  void chars(T v) {
    char buf[32];
    const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    out.append(buf, static_cast<std::size_t>(end - buf));
  }
  void key(const char* k) {
    out += k;
    out += ' ';
  }
  void header(const char* tag) {
    out += kMagic;
    out += ' ';
    chars(kServeWireVersion);
    out += ' ';
    out += tag;
    out += '\n';
  }
  void kv(const char* k, std::string_view value) {
    key(k);
    out += value;
    out += '\n';
  }
  template <class T>
  void num(const char* k, T v) {
    key(k);
    chars(v);
    out += '\n';
  }
  void flag(const char* k, bool v) { kv(k, v ? "1" : "0"); }
  /// Same escape set as encode_stack_spec: '%', whitespace, control bytes —
  /// the encoded token survives any line/space tokenizer unsplit.
  void percent_encode(std::string_view raw) {
    static const char* hex = "0123456789ABCDEF";
    for (const char ch : raw) {
      const unsigned char c = static_cast<unsigned char>(ch);
      if (c == '%' || c <= 0x20 || c == 0x7f) {
        out += '%';
        out += hex[c >> 4];
        out += hex[c & 0xf];
      } else {
        out += ch;
      }
    }
  }
  void text(const char* k, std::string_view v) {
    key(k);
    percent_encode(v);
    out += '\n';
  }
  void csv(const std::vector<double>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      chars(v[i]);
    }
  }
  void list(const char* k, const std::vector<double>& v) {
    if (v.empty()) return;
    key(k);
    csv(v);
    out += '\n';
  }
};

// -- field tables -------------------------------------------------------------
// One enumeration per struct drives both encode and decode, so the two
// cannot drift.  Each visitor takes the struct const (encode) or mutable
// (decode).  Every field of ThermalModelParams is on the wire, as
// `t.<name>` from its visit_fields table: the model key (and so bit-identity
// with an in-process call) depends on all of them.

constexpr auto visit_thermal = [](auto& t, auto&& f) { visit_fields(t, f); };

constexpr auto visit_result = [](auto& r, auto&& f) {
  f("r.hotspot_percent", r.hotspot_percent);
  f("r.hotspot_max_sample", r.hotspot_max_sample);
  f("r.above_target_percent", r.above_target_percent);
  f("r.spatial_gradient_percent", r.spatial_gradient_percent);
  f("r.thermal_cycles_per_1000", r.thermal_cycles_per_1000);
  f("r.avg_tmax", r.avg_tmax);
  f("r.chip_energy_j", r.chip_energy_j);
  f("r.pump_energy_j", r.pump_energy_j);
  f("r.total_energy_j", r.total_energy_j);
  f("r.throughput_per_s", r.throughput_per_s);
  f("r.avg_utilization", r.avg_utilization);
  f("r.migrations", r.migrations);
  f("r.pump_transitions", r.pump_transitions);
  f("r.valve_transitions", r.valve_transitions);
  f("r.avg_flow_skew", r.avg_flow_skew);
  f("r.predictor_rebuilds", r.predictor_rebuilds);
  f("r.forecast_rmse", r.forecast_rmse);
  f("r.avg_pump_setting", r.avg_pump_setting);
  f("r.elapsed_s", r.elapsed_s);
};

constexpr auto visit_stats = [](auto& s, auto&& f) {
  f("steady_queries", s.steady_queries);
  f("rom_hits", s.rom_hits);
  f("rom_builds", s.rom_builds);
  f("rom_fallbacks", s.rom_fallbacks);
  f("rom_evictions", s.rom_evictions);
  f("full_solves", s.full_solves);
  f("model_evictions", s.model_evictions);
  f("session_queries", s.session_queries);
  f("batches", s.batches);
  f("batched_sessions", s.batched_sessions);
  f("max_batch", s.max_batch);
  f("solo_fallbacks", s.solo_fallbacks);
  f("wire_accepted", s.wire_accepted);
  f("wire_rejected", s.wire_rejected);
  f("wire_timed_out", s.wire_timed_out);
  f("wire_connections", s.wire_connections);
  f("wire_queue_hwm", s.wire_queue_hwm);
  f("wire_queue_hwm_window", s.wire_queue_hwm_window);
};

/// Writes every field as `<prefix><name> <value>`.
template <class T, class Visit>
void write_table(Writer& w, const T& obj, Visit visit, std::string_view prefix = {}) {
  visit(obj, [&w, prefix](const char* name, const auto& field) {
    using F = std::remove_cvref_t<decltype(field)>;
    w.out += prefix;
    if constexpr (std::is_same_v<F, bool>) {
      w.flag(name, field);
    } else {
      w.num(name, field);
    }
  });
}

/// Decodes the table field `key` names (`<prefix><name>`) into `obj`; false
/// when the table has no such key.  The name → ordinal index is built once
/// per table from its visitor, so a key costs one hash lookup, not a compare
/// against every name.
template <class T, class Visit>
bool read_table(Visit visit, T& obj, std::string_view key, std::string_view value,
                const char* what, std::string_view prefix = {}) {
  static const auto index = [visit] {
    std::unordered_map<std::string_view, std::size_t> names;
    T scratch{};
    visit(scratch, [&names](const char* name, auto&) {
      names.emplace(name, names.size());
    });
    return names;
  }();
  if (!key.starts_with(prefix)) return false;
  const auto hit = index.find(key.substr(prefix.size()));
  if (hit == index.end()) return false;
  std::size_t ordinal = 0;
  visit(obj, [&](const char*, auto& field) {
    if (ordinal++ != hit->second) return;
    using F = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<F, bool>) {
      field = read_flag(value, what, key);
    } else if constexpr (std::is_same_v<F, double>) {
      field = read_f64(value, what, key);
    } else {
      static_assert(std::is_unsigned_v<F>);
      field = static_cast<F>(read_u64(value, what, key));
    }
  });
  return true;
}

// -- payload encoders ---------------------------------------------------------

void write_envelope_prefix(Writer& w, const char* tag, std::uint64_t id,
                           double deadline_ms) {
  w.header(tag);
  w.num("id", id);
  w.num("deadline_ms", deadline_ms);
}

const char* request_tag(const SteadyQuery&) { return "steady"; }
const char* request_tag(const WhatIfQuery&) { return "whatif"; }
const char* request_tag(const ReplayQuery&) { return "replay"; }
const char* request_tag(const StatsQuery&) { return "stats"; }
const char* request_tag(const MetricsQuery&) { return "metrics"; }
const char* request_tag(const TraceQuery&) { return "trace"; }

void write_payload(Writer& w, const SteadyQuery& q) {
  const SimulationConfig& cfg = q.config;
  w.kv("cooling", cooling_name(cfg.cooling));
  w.num("layer_pairs", cfg.layer_pairs);
  if (cfg.stack) w.kv("stack", encode_stack_spec(*cfg.stack));
  w.kv("delivery_mode", to_string(cfg.delivery_mode));
  write_table(w, cfg.thermal, visit_thermal, "t.");
  w.num("core_watts", q.core_watts);
  if (!q.block_watts.empty()) {
    w.key("block_watts");
    for (std::size_t l = 0; l < q.block_watts.size(); ++l) {
      if (l > 0) w.out += ';';
      w.chars(l);
      w.out += ':';
      w.csv(q.block_watts[l]);
    }
    w.out += '\n';
  }
  w.list("flows_ml_per_min", q.flows_ml_per_min);
  w.list("valve_openings", q.valve_openings);
  w.num("pump_setting", q.pump_setting);
  if (q.reference_c) w.num("reference_c", *q.reference_c);
  w.num("max_error_c", q.max_error_c);
  w.flag("force_full", q.force_full);
}

void write_payload(Writer& w, const WhatIfQuery& q) {
  w.text("scenario", q.scenario);
  w.text("benchmark", q.benchmark);
  w.num("duration_s", q.duration_s);
  w.num("seed", q.seed);
  w.num("layer_pairs", q.layer_pairs);
  if (q.stack) w.kv("stack", encode_stack_spec(*q.stack));
  w.num("grid_rows", q.grid_rows);
  w.num("grid_cols", q.grid_cols);
}

void write_payload(Writer& w, const ReplayQuery& q) {
  write_payload(w, q.base);
  for (const PhaseChange& p : q.phases) {
    w.key("phase");
    w.chars(static_cast<std::uint64_t>(p.at.as_ms()));
    w.out += ':';
    w.chars(p.utilization_scale);
    w.out += '\n';
  }
  w.num("trace_period_s", q.trace_period_s);
}

void write_payload(Writer& w, const StatsQuery& q) {
  // Emitted only when set, so plain stats requests stay byte-identical to
  // what pre-reset peers produced.
  if (q.reset_hwm) w.flag("reset_hwm", true);
}

void write_payload(Writer&, const MetricsQuery&) {}

void write_payload(Writer& w, const TraceQuery& q) {
  if (q.limit != 0) w.num("limit", q.limit);
}

void write_outcome(Writer& w, const SessionOutcome& o) {
  w.text("r.label", o.result.label);
  w.text("r.benchmark", o.result.benchmark);
  write_table(w, o.result, visit_result);
  for (const SampleTrace& s : o.trace) {
    // 9 space-separated fields: ms tmax forecast pump flow chip pump_w busy
    // queued (see decode_outcome).
    w.key("trace");
    w.chars(static_cast<std::uint64_t>(s.now.as_ms()));
    for (const double v : {s.tmax, s.forecast}) {
      w.out += ' ';
      w.chars(v);
    }
    w.out += ' ';
    w.chars(s.pump_setting);
    for (const double v : {s.flow_ml_per_min, s.chip_watts, s.pump_watts, s.mean_busy}) {
      w.out += ' ';
      w.chars(v);
    }
    w.out += ' ';
    w.chars(s.queued_threads);
    w.out += '\n';
  }
}

// -- line reader --------------------------------------------------------------

struct Line {
  std::string_view key;
  std::string_view value;
};

/// Walks the body's `<key> <value>` lines (value may be empty) as views into
/// the payload; blank lines are skipped.
struct LineReader {
  std::string_view rest;
  const char* what;

  bool next(Line& line) {
    while (!rest.empty()) {
      const std::size_t eol = std::min(rest.find('\n'), rest.size());
      const std::string_view text = rest.substr(0, eol);
      rest.remove_prefix(std::min(eol + 1, rest.size()));
      if (text.empty()) continue;
      const std::size_t space = text.find(' ');
      if (space == std::string_view::npos || space == 0) {
        reject(what, "malformed line '" + std::string(text) + "'");
      }
      line = Line{text.substr(0, space), text.substr(space + 1)};
      return true;
    }
    return false;
  }
};

/// Header: `liquid3d-serve <version> <tag>`.  Returns the tag and the body
/// after it; rejects a foreign magic or an unsupported version.
std::string_view read_header(std::string_view text, std::string_view& body,
                             const char* what) {
  const std::size_t eol = std::min(text.find('\n'), text.size());
  const std::string_view header = text.substr(0, eol);
  body = text.substr(std::min(eol + 1, text.size()));

  const std::size_t magic_end = header.find(' ');
  if (magic_end == std::string_view::npos || header.substr(0, magic_end) != kMagic) {
    reject(what, "not a liquid3d-serve envelope");
  }
  const std::size_t ver_end = header.find(' ', magic_end + 1);
  if (ver_end == std::string_view::npos) reject(what, "missing version/tag in header");
  const std::string_view version = header.substr(magic_end + 1, ver_end - magic_end - 1);
  if (read_u64(version, what, "envelope version") != kServeWireVersion) {
    reject(what, "unsupported envelope version " + std::string(version) +
                     " (this peer speaks " + std::to_string(kServeWireVersion) + ")");
  }
  return header.substr(ver_end + 1);
}

// -- payload decoders ---------------------------------------------------------

bool read_envelope_field(std::uint64_t& id, double& deadline_ms, const Line& line,
                         const char* what) {
  if (line.key == "id") {
    id = read_u64(line.value, what, line.key);
    return true;
  }
  if (line.key == "deadline_ms") {
    deadline_ms = read_f64(line.value, what, line.key);
    return true;
  }
  return false;
}

void decode_steady(LineReader& lines, WireRequest& request, SteadyQuery& q) {
  const char* what = lines.what;
  for (Line line; lines.next(line);) {
    const std::string_view key = line.key;
    const std::string_view value = line.value;
    if (read_envelope_field(request.id, request.deadline_ms, line, what)) {
    } else if (key == "cooling") {
      q.config.cooling = cooling_from_name(value, what);
    } else if (key == "layer_pairs") {
      q.config.layer_pairs = static_cast<std::size_t>(read_u64(value, what, key));
    } else if (key == "stack") {
      q.config.stack = decode_stack_spec(std::string(value), what);
    } else if (key == "delivery_mode") {
      q.config.delivery_mode = delivery_from_name(value, what);
    } else if (read_table(visit_thermal, q.config.thermal, key, value, what, "t.")) {
    } else if (key == "core_watts") {
      q.core_watts = read_f64(value, what, key);
    } else if (key == "block_watts") {
      for (std::size_t pos = 0; pos <= value.size();) {
        const std::size_t semi = std::min(value.find(';', pos), value.size());
        const std::string_view entry = value.substr(pos, semi - pos);
        pos = semi + 1;
        const std::size_t colon = entry.find(':');
        if (colon == std::string_view::npos) {
          reject(what, "block_watts entry '" + std::string(entry) +
                           "' is not LAYER:W,W,..");
        }
        const std::uint64_t layer = read_u64(entry.substr(0, colon), what, "block_watts layer");
        // The index sizes an allocation: bound it before trusting it.
        if (layer >= kMaxWireLayers) {
          reject(what, "block_watts layer " + std::to_string(layer) +
                           " is past the cap of " + std::to_string(kMaxWireLayers) +
                           " layers");
        }
        if (layer >= q.block_watts.size()) q.block_watts.resize(layer + 1);
        const std::string_view csv = entry.substr(colon + 1);
        if (!csv.empty()) read_f64_list(csv, what, "block_watts", q.block_watts[layer]);
      }
    } else if (key == "flows_ml_per_min") {
      read_f64_list(value, what, key, q.flows_ml_per_min);
    } else if (key == "valve_openings") {
      read_f64_list(value, what, key, q.valve_openings);
    } else if (key == "pump_setting") {
      q.pump_setting = static_cast<std::size_t>(read_u64(value, what, key));
    } else if (key == "reference_c") {
      q.reference_c = read_f64(value, what, key);
    } else if (key == "max_error_c") {
      q.max_error_c = read_f64(value, what, key);
    } else if (key == "force_full") {
      q.force_full = read_flag(value, what, key);
    } else {
      reject(what, "unknown steady key '" + std::string(key) + "'");
    }
  }
}

/// Shared by whatif and replay ( `phases`/`trace_period_s` only legal for
/// replay — `replay` toggles them).
ReplayQuery decode_session_query(LineReader& lines, bool replay,
                                 WireRequest& request) {
  const char* what = lines.what;
  ReplayQuery q;
  for (Line line; lines.next(line);) {
    const std::string_view key = line.key;
    const std::string_view value = line.value;
    if (read_envelope_field(request.id, request.deadline_ms, line, what)) {
    } else if (key == "scenario") {
      q.base.scenario = percent_decode(value, what, key);
    } else if (key == "benchmark") {
      q.base.benchmark = percent_decode(value, what, key);
    } else if (key == "duration_s") {
      q.base.duration_s = read_f64(value, what, key);
    } else if (key == "seed") {
      q.base.seed = read_u64(value, what, key);
    } else if (key == "layer_pairs") {
      q.base.layer_pairs = static_cast<std::size_t>(read_u64(value, what, key));
    } else if (key == "stack") {
      q.base.stack = decode_stack_spec(std::string(value), what);
    } else if (key == "grid_rows") {
      q.base.grid_rows = static_cast<std::size_t>(read_u64(value, what, key));
    } else if (key == "grid_cols") {
      q.base.grid_cols = static_cast<std::size_t>(read_u64(value, what, key));
    } else if (replay && key == "phase") {
      const std::size_t colon = value.find(':');
      if (colon == std::string_view::npos) {
        reject(what, "phase '" + std::string(value) + "' is not MS:SCALE");
      }
      PhaseChange p;
      p.at = SimTime::from_ms(
          static_cast<std::int64_t>(read_u64(value.substr(0, colon), what, "phase time")));
      p.utilization_scale = read_f64(value.substr(colon + 1), what, "phase scale");
      q.phases.push_back(p);
    } else if (replay && key == "trace_period_s") {
      q.trace_period_s = read_f64(value, what, key);
    } else {
      reject(what, std::string("unknown ") + (replay ? "replay" : "whatif") +
                       " key '" + std::string(key) + "'");
    }
  }
  return q;
}

SteadyAnswer decode_steady_answer(LineReader& lines, std::uint64_t& id) {
  const char* what = lines.what;
  SteadyAnswer a;
  double ignored_deadline = 0.0;
  for (Line line; lines.next(line);) {
    const std::string_view key = line.key;
    const std::string_view value = line.value;
    if (read_envelope_field(id, ignored_deadline, line, what)) {
    } else if (key == "t_max_c") {
      a.t_max_c = read_f64(value, what, key);
    } else if (key == "layer_max_c") {
      read_f64_list(value, what, key, a.layer_max_c);
    } else if (key == "used_rom") {
      a.used_rom = read_flag(value, what, key);
    } else if (key == "estimated_error_c") {
      a.estimated_error_c = read_f64(value, what, key);
    } else if (key == "certified_error_c") {
      a.certified_error_c = read_f64(value, what, key);
    } else if (key == "rom_dimension") {
      a.rom_dimension = static_cast<std::size_t>(read_u64(value, what, key));
    } else if (key == "elapsed_us") {
      a.elapsed_us = read_f64(value, what, key);
    } else {
      reject(what, "unknown steady-answer key '" + std::string(key) + "'");
    }
  }
  return a;
}

SessionOutcome decode_outcome(LineReader& lines, std::uint64_t& id) {
  const char* what = lines.what;
  SessionOutcome o;
  double ignored_deadline = 0.0;
  for (Line line; lines.next(line);) {
    const std::string_view key = line.key;
    const std::string_view value = line.value;
    if (read_envelope_field(id, ignored_deadline, line, what)) {
    } else if (key == "r.label") {
      o.result.label = percent_decode(value, what, key);
    } else if (key == "r.benchmark") {
      o.result.benchmark = percent_decode(value, what, key);
    } else if (key == "trace") {
      std::array<std::string_view, 9> f;  // see write_outcome
      const std::size_t n = split(value, ' ', f);
      if (n != f.size()) {
        reject(what, "trace record has " + std::to_string(n) + " fields, expected 9");
      }
      SampleTrace s;
      s.now = SimTime::from_ms(static_cast<std::int64_t>(read_u64(f[0], what, "trace time")));
      s.tmax = read_f64(f[1], what, "trace tmax");
      s.forecast = read_f64(f[2], what, "trace forecast");
      s.pump_setting = static_cast<std::size_t>(read_u64(f[3], what, "trace pump"));
      s.flow_ml_per_min = read_f64(f[4], what, "trace flow");
      s.chip_watts = read_f64(f[5], what, "trace chip watts");
      s.pump_watts = read_f64(f[6], what, "trace pump watts");
      s.mean_busy = read_f64(f[7], what, "trace busy");
      s.queued_threads = static_cast<std::size_t>(read_u64(f[8], what, "trace queued"));
      o.trace.push_back(s);
    } else if (!read_table(visit_result, o.result, key, value, what)) {
      reject(what, "unknown outcome key '" + std::string(key) + "'");
    }
  }
  return o;
}

/// One trace-answer span line:
///   <trace_id> <span_id> <parent_id> <stage> <start_ns> <end_ns>
/// (stage percent-encoded).
obs::TraceSpan decode_span(std::string_view value, const char* what) {
  std::array<std::string_view, 6> f;
  if (split(value, ' ', f) != f.size()) {
    reject(what, "malformed span line '" + std::string(value) + "'");
  }
  obs::TraceSpan s;
  s.trace_id = read_u64(f[0], what, "span trace_id");
  s.span_id = static_cast<std::uint32_t>(read_u64(f[1], what, "span id"));
  s.parent_id = static_cast<std::uint32_t>(read_u64(f[2], what, "span parent"));
  s.stage = percent_decode(f[3], what, "span stage");
  s.start_ns = read_u64(f[4], what, "span start");
  s.end_ns = read_u64(f[5], what, "span end");
  return s;
}

/// Decodes a body whose only keys besides id/deadline_ms are handled by
/// `field` (returns false for a key it does not know, which is rejected).
template <class Field>
void decode_simple(LineReader& lines, std::uint64_t& id, double& deadline_ms,
                   const char* tag, Field&& field) {
  for (Line line; lines.next(line);) {
    if (read_envelope_field(id, deadline_ms, line, lines.what)) continue;
    if (!field(line)) {
      reject(lines.what, "unknown " + std::string(tag) + " key '" +
                             std::string(line.key) + "'");
    }
  }
}

}  // namespace

const char* to_string(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kBadRequest: return "bad-request";
    case WireErrorCode::kOverloaded: return "overloaded";
    case WireErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case WireErrorCode::kShuttingDown: return "shutting-down";
    case WireErrorCode::kSolver: return "solver";
    case WireErrorCode::kInternal: return "internal";
    case WireErrorCode::kProtocol: return "protocol";
    case WireErrorCode::kDisconnected: return "disconnected";
  }
  return "?";
}

template <class Query>
std::string encode_request(std::uint64_t id, double deadline_ms, const Query& query) {
  Writer w;
  write_envelope_prefix(w, request_tag(query), id, deadline_ms);
  write_payload(w, query);
  return std::move(w.out);
}

template std::string encode_request(std::uint64_t, double, const SteadyQuery&);
template std::string encode_request(std::uint64_t, double, const WhatIfQuery&);
template std::string encode_request(std::uint64_t, double, const ReplayQuery&);
template std::string encode_request(std::uint64_t, double, const StatsQuery&);
template std::string encode_request(std::uint64_t, double, const MetricsQuery&);
template std::string encode_request(std::uint64_t, double, const TraceQuery&);

std::string encode_request(const WireRequest& request) {
  return std::visit(
      [&request](const auto& query) {
        return encode_request(request.id, request.deadline_ms, query);
      },
      request.payload);
}

std::string encode_response(const WireResponse& response) {
  Writer w;
  if (const auto* answer = std::get_if<SteadyAnswer>(&response.payload)) {
    write_envelope_prefix(w, "steady-answer", response.id, 0.0);
    w.num("t_max_c", answer->t_max_c);
    w.list("layer_max_c", answer->layer_max_c);
    w.flag("used_rom", answer->used_rom);
    w.num("estimated_error_c", answer->estimated_error_c);
    w.num("certified_error_c", answer->certified_error_c);
    w.num("rom_dimension", answer->rom_dimension);
    w.num("elapsed_us", answer->elapsed_us);
  } else if (const auto* outcome = std::get_if<SessionOutcome>(&response.payload)) {
    write_envelope_prefix(w, "outcome", response.id, 0.0);
    write_outcome(w, *outcome);
  } else if (const auto* stats = std::get_if<ServeStats>(&response.payload)) {
    write_envelope_prefix(w, "stats-answer", response.id, 0.0);
    write_table(w, *stats, visit_stats);
  } else if (const auto* metrics = std::get_if<MetricsAnswer>(&response.payload)) {
    write_envelope_prefix(w, "metrics-answer", response.id, 0.0);
    w.text("body", metrics->text);
  } else if (const auto* trace = std::get_if<TraceAnswer>(&response.payload)) {
    write_envelope_prefix(w, "trace-answer", response.id, 0.0);
    for (const obs::TraceSpan& s : trace->spans) {
      // One span per line: ids, percent-encoded stage, start/end ns.
      w.key("span");
      for (const std::uint64_t v : {s.trace_id, std::uint64_t{s.span_id},
                                    std::uint64_t{s.parent_id}}) {
        w.chars(v);
        w.out += ' ';
      }
      w.percent_encode(s.stage);
      for (const std::uint64_t v : {s.start_ns, s.end_ns}) {
        w.out += ' ';
        w.chars(v);
      }
      w.out += '\n';
    }
  } else {
    const auto& error = std::get<ErrorReply>(response.payload);
    write_envelope_prefix(w, "error", response.id, 0.0);
    w.kv("code", to_string(error.code));
    w.text("message", error.message);
  }
  return std::move(w.out);
}

WireRequest decode_request(const std::string& text) {
  const char* what = "serve request";
  std::string_view body;
  const std::string_view tag = read_header(text, body, what);
  LineReader lines{body, what};

  WireRequest request;
  if (tag == "steady") {
    decode_steady(lines, request, request.payload.emplace<SteadyQuery>());
  } else if (tag == "whatif") {
    request.payload = decode_session_query(lines, false, request).base;
  } else if (tag == "replay") {
    request.payload = decode_session_query(lines, true, request);
  } else if (tag == "stats") {
    auto& q = request.payload.emplace<StatsQuery>();
    decode_simple(lines, request.id, request.deadline_ms, "stats", [&](const Line& line) {
      if (line.key != "reset_hwm") return false;
      q.reset_hwm = read_flag(line.value, what, line.key);
      return true;
    });
  } else if (tag == "metrics") {
    request.payload.emplace<MetricsQuery>();
    decode_simple(lines, request.id, request.deadline_ms, "metrics",
                  [](const Line&) { return false; });
  } else if (tag == "trace") {
    auto& q = request.payload.emplace<TraceQuery>();
    decode_simple(lines, request.id, request.deadline_ms, "trace", [&](const Line& line) {
      if (line.key != "limit") return false;
      q.limit = read_u64(line.value, what, line.key);
      return true;
    });
  } else {
    reject(what, "unknown request tag '" + std::string(tag) + "'");
  }
  return request;
}

WireResponse decode_response(const std::string& text) {
  const char* what = "serve response";
  std::string_view body;
  const std::string_view tag = read_header(text, body, what);
  LineReader lines{body, what};

  WireResponse response;
  double ignored_deadline = 0.0;
  if (tag == "steady-answer") {
    response.payload = decode_steady_answer(lines, response.id);
  } else if (tag == "outcome") {
    response.payload = decode_outcome(lines, response.id);
  } else if (tag == "stats-answer") {
    auto& s = response.payload.emplace<ServeStats>();
    decode_simple(lines, response.id, ignored_deadline, "stats", [&](const Line& line) {
      return read_table(visit_stats, s, line.key, line.value, what);
    });
  } else if (tag == "metrics-answer") {
    auto& a = response.payload.emplace<MetricsAnswer>();
    decode_simple(lines, response.id, ignored_deadline, "metrics-answer",
                  [&](const Line& line) {
                    if (line.key != "body") return false;
                    a.text = percent_decode(line.value, what, line.key);
                    return true;
                  });
  } else if (tag == "trace-answer") {
    auto& a = response.payload.emplace<TraceAnswer>();
    decode_simple(lines, response.id, ignored_deadline, "trace-answer",
                  [&](const Line& line) {
                    if (line.key != "span") return false;
                    a.spans.push_back(decode_span(line.value, what));
                    return true;
                  });
  } else if (tag == "error") {
    auto& e = response.payload.emplace<ErrorReply>();
    decode_simple(lines, response.id, ignored_deadline, "error", [&](const Line& line) {
      if (line.key == "code") {
        e.code = error_code_from_name(line.value, what);
      } else if (line.key == "message") {
        e.message = percent_decode(line.value, what, line.key);
      } else {
        return false;
      }
      return true;
    });
  } else {
    reject(what, "unknown response tag '" + std::string(tag) + "'");
  }
  return response;
}

std::uint64_t peek_request_id(const std::string& text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line = std::string_view(text).substr(pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, 3) == "id ") {
      std::uint64_t v = 0;
      const char* begin = line.data() + 3;
      const char* end = line.data() + line.size();
      if (std::from_chars(begin, end, v, 10).ptr == end) return v;
      return 0;
    }
  }
  return 0;
}

}  // namespace liquid3d
