// The versioned serve wire envelope (serve/net/envelope.hpp).  Contracts
// under test: every request/response payload round-trips bit-exactly
// (doubles printed shortest round-trip by std::to_chars, strings through
// percent-encoding, optionals and repeated fields preserved); a %.17g
// envelope from an older peer decodes to the same bits; number parsing
// accepts exactly the spellings parse_double/parse_u64 accept; decoding is
// strict — a foreign magic, an unsupported version, an unknown tag, an
// unknown key, a flag other than 0/1, an out-of-range layer index and
// malformed values all throw ConfigError naming the offender; and
// peek_request_id salvages the correlation id from envelopes too broken
// to decode.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "geom/stack_spec.hpp"
#include "serve/net/envelope.hpp"

namespace liquid3d {
namespace {

SteadyQuery sample_steady() {
  SteadyQuery q;
  q.config.cooling = CoolingMode::kLiquidVar;
  q.config.layer_pairs = 2;
  q.config.delivery_mode = FlowDeliveryMode::kPaperNominal;
  q.config.thermal.grid_rows = 8;
  q.config.thermal.grid_cols = 9;
  q.config.thermal.inlet_temperature = 32.25;
  q.config.thermal.alternate_flow_direction = true;
  q.config.thermal.bond_conductivity = 1.0 / 3.0;  // not exactly representable
  q.block_watts = {{0.5, 1.0 / 7.0}, {}, {2.25}};
  q.core_watts = 3.125;
  q.flows_ml_per_min = {11.0, 13.5};
  q.valve_openings = {0.25, 0.75};
  q.pump_setting = 3;
  q.reference_c = 41.5;
  q.max_error_c = 0.01;
  q.force_full = true;
  return q;
}

WireRequest roundtrip_request(const WireRequest& request) {
  return decode_request(encode_request(request));
}

WireResponse roundtrip_response(const WireResponse& response) {
  return decode_response(encode_response(response));
}

TEST(ServeEnvelope, SteadyQueryRoundTripsBitExactly) {
  WireRequest request;
  request.id = 42;
  request.deadline_ms = 1.5;
  request.payload = sample_steady();

  const WireRequest out = roundtrip_request(request);
  EXPECT_EQ(out.id, 42u);
  EXPECT_EQ(out.deadline_ms, 1.5);
  const auto& q = std::get<SteadyQuery>(out.payload);
  const SteadyQuery ref = sample_steady();
  EXPECT_EQ(q.config.cooling, ref.config.cooling);
  EXPECT_EQ(q.config.layer_pairs, ref.config.layer_pairs);
  EXPECT_EQ(q.config.delivery_mode, ref.config.delivery_mode);
  EXPECT_EQ(q.config.thermal.grid_rows, ref.config.thermal.grid_rows);
  EXPECT_EQ(q.config.thermal.inlet_temperature,
            ref.config.thermal.inlet_temperature);
  EXPECT_EQ(q.config.thermal.alternate_flow_direction, true);
  // The bit-identity linchpin: a double that has no short decimal form.
  EXPECT_EQ(q.config.thermal.bond_conductivity, 1.0 / 3.0);
  EXPECT_EQ(q.block_watts, ref.block_watts);
  EXPECT_EQ(q.core_watts, ref.core_watts);
  EXPECT_EQ(q.flows_ml_per_min, ref.flows_ml_per_min);
  EXPECT_EQ(q.valve_openings, ref.valve_openings);
  EXPECT_EQ(q.pump_setting, 3u);
  ASSERT_TRUE(q.reference_c.has_value());
  EXPECT_EQ(*q.reference_c, 41.5);
  EXPECT_EQ(q.max_error_c, 0.01);
  EXPECT_TRUE(q.force_full);
}

TEST(ServeEnvelope, SteadyQueryDefaultsSurviveOmission) {
  // A default-constructed query encodes only what it carries; decoding
  // restores the same defaults (kTopSetting, no stack, empty power map).
  WireRequest request;
  request.payload = SteadyQuery{};
  const WireRequest rt = roundtrip_request(request);
  const auto& q = std::get<SteadyQuery>(rt.payload);
  EXPECT_EQ(q.pump_setting, SteadyQuery::kTopSetting);
  EXPECT_FALSE(q.config.stack.has_value());
  EXPECT_FALSE(q.reference_c.has_value());
  EXPECT_TRUE(q.block_watts.empty());
  EXPECT_FALSE(q.force_full);
}

TEST(ServeEnvelope, WhatIfWithStackSpecRoundTrips) {
  WhatIfQuery q;
  q.scenario = "lb-max-valved/hot corner";  // space forces percent-encoding
  q.benchmark = "Web-med";
  q.duration_s = 2.5;
  q.seed = 77;
  q.layer_pairs = 2;
  q.stack = niagara_stack_spec(2, CoolingType::kLiquid);
  q.grid_rows = 8;
  q.grid_cols = 9;

  WireRequest request;
  request.id = 7;
  request.payload = q;
  const WireRequest rt = roundtrip_request(request);
  const auto& out = std::get<WhatIfQuery>(rt.payload);
  EXPECT_EQ(out.scenario, q.scenario);
  EXPECT_EQ(out.benchmark, q.benchmark);
  EXPECT_EQ(out.duration_s, q.duration_s);
  EXPECT_EQ(out.seed, q.seed);
  EXPECT_EQ(out.layer_pairs, q.layer_pairs);
  ASSERT_TRUE(out.stack.has_value());
  EXPECT_EQ(encode_stack_spec(*out.stack), encode_stack_spec(*q.stack));
  EXPECT_EQ(out.grid_rows, 8u);
  EXPECT_EQ(out.grid_cols, 9u);
}

TEST(ServeEnvelope, ReplayPhasesRoundTripInOrder) {
  ReplayQuery q;
  q.base.scenario = "talb-var";
  q.base.benchmark = "Web-med";
  q.phases.push_back({SimTime::from_s(60), 0.25});
  q.phases.push_back({SimTime::from_ms(90500), 1.0 / 3.0});
  q.trace_period_s = 10.0;

  WireRequest request;
  request.payload = q;
  const WireRequest rt = roundtrip_request(request);
  const auto& out = std::get<ReplayQuery>(rt.payload);
  ASSERT_EQ(out.phases.size(), 2u);
  EXPECT_EQ(out.phases[0].at.as_ms(), 60000);
  EXPECT_EQ(out.phases[0].utilization_scale, 0.25);
  EXPECT_EQ(out.phases[1].at.as_ms(), 90500);
  EXPECT_EQ(out.phases[1].utilization_scale, 1.0 / 3.0);
  EXPECT_EQ(out.trace_period_s, 10.0);
}

TEST(ServeEnvelope, PhaseKeyIsIllegalForPlainWhatIf) {
  ReplayQuery q;
  q.base.scenario = "talb-var";
  q.base.benchmark = "Web-med";
  q.phases.push_back({SimTime::from_s(1), 0.5});
  WireRequest request;
  request.payload = q;
  // Re-tag the replay body as a whatif: the phase line must now be rejected.
  std::string text = encode_request(request);
  const std::string from = "liquid3d-serve 1 replay";
  text.replace(text.find(from), from.size(), "liquid3d-serve 1 whatif");
  EXPECT_THROW((void)decode_request(text), ConfigError);
}

TEST(ServeEnvelope, ResponsesRoundTrip) {
  SteadyAnswer a;
  a.t_max_c = 57.123456789012345;
  a.layer_max_c = {57.1, 56.0};
  a.used_rom = true;
  a.estimated_error_c = 7.3e-11;
  a.certified_error_c = 4.0e-13;
  a.rom_dimension = 21;
  a.elapsed_us = 31.5;
  WireResponse response;
  response.id = 9;
  response.payload = a;
  const WireResponse out = roundtrip_response(response);
  EXPECT_EQ(out.id, 9u);
  const auto& b = std::get<SteadyAnswer>(out.payload);
  EXPECT_EQ(b.t_max_c, a.t_max_c);
  EXPECT_EQ(b.layer_max_c, a.layer_max_c);
  EXPECT_TRUE(b.used_rom);
  EXPECT_EQ(b.estimated_error_c, a.estimated_error_c);
  EXPECT_EQ(b.certified_error_c, a.certified_error_c);
  EXPECT_EQ(b.rom_dimension, 21u);
  EXPECT_EQ(b.elapsed_us, 31.5);
}

TEST(ServeEnvelope, OutcomeWithTraceRoundTripsBitExactly) {
  SessionOutcome o;
  o.result.label = "TALB (Var)";
  o.result.benchmark = "Web-med";
  o.result.avg_tmax = 61.234567890123456;
  o.result.forecast_rmse = 1.0 / 7.0;
  o.result.migrations = 12;
  o.result.avg_flow_skew = 1.0625;
  SampleTrace s;
  s.now = SimTime::from_ms(1500);
  s.tmax = 58.5;
  s.forecast = 59.0;
  s.pump_setting = 4;
  s.flow_ml_per_min = 42.5;
  s.chip_watts = 36.0;
  s.pump_watts = 0.75;
  s.mean_busy = 1.0 / 3.0;
  s.queued_threads = 2;
  o.trace.push_back(s);

  WireResponse response;
  response.id = 3;
  response.payload = o;
  const WireResponse rt = roundtrip_response(response);
  const auto& out = std::get<SessionOutcome>(rt.payload);
  EXPECT_EQ(out.result.label, o.result.label);
  EXPECT_EQ(out.result.benchmark, o.result.benchmark);
  EXPECT_EQ(out.result.avg_tmax, o.result.avg_tmax);
  EXPECT_EQ(out.result.forecast_rmse, o.result.forecast_rmse);
  EXPECT_EQ(out.result.migrations, 12u);
  EXPECT_EQ(out.result.avg_flow_skew, 1.0625);
  ASSERT_EQ(out.trace.size(), 1u);
  EXPECT_EQ(out.trace[0].now.as_ms(), 1500);
  EXPECT_EQ(out.trace[0].tmax, 58.5);
  EXPECT_EQ(out.trace[0].forecast, 59.0);
  EXPECT_EQ(out.trace[0].pump_setting, 4u);
  EXPECT_EQ(out.trace[0].flow_ml_per_min, 42.5);
  EXPECT_EQ(out.trace[0].chip_watts, 36.0);
  EXPECT_EQ(out.trace[0].pump_watts, 0.75);
  EXPECT_EQ(out.trace[0].mean_busy, 1.0 / 3.0);
  EXPECT_EQ(out.trace[0].queued_threads, 2u);
}

TEST(ServeEnvelope, StatsAndErrorRoundTrip) {
  ServeStats stats;
  stats.steady_queries = 5;
  stats.rom_hits = 4;
  stats.wire_accepted = 51;
  stats.wire_rejected = 3;
  stats.wire_timed_out = 1;
  stats.wire_connections = 2;
  stats.wire_queue_hwm = 8;
  WireResponse response;
  response.id = 1;
  response.payload = stats;
  const WireResponse rt = roundtrip_response(response);
  const auto& s = std::get<ServeStats>(rt.payload);
  EXPECT_EQ(s.steady_queries, 5u);
  EXPECT_EQ(s.rom_hits, 4u);
  EXPECT_EQ(s.wire_accepted, 51u);
  EXPECT_EQ(s.wire_rejected, 3u);
  EXPECT_EQ(s.wire_timed_out, 1u);
  EXPECT_EQ(s.wire_connections, 2u);
  EXPECT_EQ(s.wire_queue_hwm, 8u);

  WireResponse err;
  err.id = 2;
  err.payload = ErrorReply{WireErrorCode::kOverloaded,
                           "admission queue full\nretry later"};
  const WireResponse err_rt = roundtrip_response(err);
  const auto& e = std::get<ErrorReply>(err_rt.payload);
  EXPECT_EQ(e.code, WireErrorCode::kOverloaded);
  EXPECT_EQ(e.message, "admission queue full\nretry later");  // newline encoded
}

TEST(ServeEnvelope, StatsRequestRoundTrips) {
  WireRequest request;
  request.id = 99;
  request.payload = StatsQuery{};
  const WireRequest out = roundtrip_request(request);
  EXPECT_EQ(out.id, 99u);
  EXPECT_TRUE(std::holds_alternative<StatsQuery>(out.payload));
}

TEST(ServeEnvelope, RejectsForeignMagicUnknownVersionAndUnknownTag) {
  EXPECT_THROW((void)decode_request("not-liquid3d 1 steady\nid 1\n"),
               ConfigError);
  EXPECT_THROW((void)decode_request("liquid3d-serve 2 steady\nid 1\n"),
               ConfigError);
  EXPECT_THROW((void)decode_request("liquid3d-serve 1 bogus\nid 1\n"),
               ConfigError);
  EXPECT_THROW((void)decode_response("liquid3d-serve 1 bogus\nid 1\n"),
               ConfigError);
}

TEST(ServeEnvelope, RemovedThermalKeysAreRejected) {
  // Removing a field removes its key: a request that still carries one of
  // the retired solver knobs gets a typed bad-request, not a silent
  // drop of a setting the client believes it made.
  WireRequest request;
  request.payload = SteadyQuery{};
  const std::string valid = encode_request(request);
  ASSERT_NO_THROW((void)decode_request(valid));
  for (const char* line :
       {"t.fluid_tolerance 0.005", "t.max_fluid_iterations 10",
        "t.steady_fluid_iterations 40", "t.steady_pseudo_dt 5",
        "t.steady_tolerance 0.0001", "t.max_steady_iterations 1500",
        "t.pcg_ssor_omega 1", "t.pcg_preconditioner ic0",
        "t.direct_steady_solver 1", "t.solver_backend auto",
        "t.pcg_tolerance 1e-10", "t.pcg_max_iterations 1000"}) {
    EXPECT_THROW((void)decode_request(valid + line + "\n"), ConfigError) << line;
  }
}

TEST(ServeEnvelope, RejectsUnknownKeysAndMalformedValues) {
  EXPECT_THROW(
      (void)decode_request("liquid3d-serve 1 steady\nid 1\nbogus_key 3\n"),
      ConfigError);
  EXPECT_THROW(
      (void)decode_request("liquid3d-serve 1 steady\nid 1\ncore_watts abc\n"),
      ConfigError);
  EXPECT_THROW(
      (void)decode_request("liquid3d-serve 1 steady\nid notanumber\n"),
      ConfigError);
  EXPECT_THROW(
      (void)decode_request("liquid3d-serve 1 steady\nid 1\ncooling steam\n"),
      ConfigError);
  // A stats request carries no payload keys at all.
  EXPECT_THROW(
      (void)decode_request("liquid3d-serve 1 stats\nid 1\ncore_watts 3\n"),
      ConfigError);
}

TEST(ServeEnvelope, BlockWattsLayerIndexIsCapped) {
  // The layer index sizes the decoded power map: one line asking for layer
  // 4e9 must be a ConfigError, not a ~96 GB allocation.
  const std::string head = "liquid3d-serve 1 steady\nid 1\nblock_watts ";
  EXPECT_THROW((void)decode_request(head + "4000000000:1\n"), ConfigError);
  EXPECT_THROW((void)decode_request(head + "18446744073709551615:1\n"),
               ConfigError);
  EXPECT_THROW(
      (void)decode_request(head + std::to_string(kMaxWireLayers) + ":1\n"),
      ConfigError);
  const WireRequest last =
      decode_request(head + std::to_string(kMaxWireLayers - 1) + ":2.5\n");
  const auto& q = std::get<SteadyQuery>(last.payload);
  ASSERT_EQ(q.block_watts.size(), kMaxWireLayers);
  EXPECT_EQ(q.block_watts.back(), std::vector<double>{2.5});
}

TEST(ServeEnvelope, FlagsDecodeOnlyZeroOrOne) {
  const std::string steady = "liquid3d-serve 1 steady\nid 1\nforce_full ";
  EXPECT_TRUE(std::get<SteadyQuery>(decode_request(steady + "1\n").payload)
                  .force_full);
  EXPECT_FALSE(std::get<SteadyQuery>(decode_request(steady + "0\n").payload)
                   .force_full);
  const std::string answer =
      "liquid3d-serve 1 steady-answer\nid 1\nused_rom ";
  EXPECT_TRUE(std::get<SteadyAnswer>(decode_response(answer + "1\n").payload)
                  .used_rom);
  const std::string stats = "liquid3d-serve 1 stats\nid 1\nreset_hwm ";
  EXPECT_FALSE(std::get<StatsQuery>(decode_request(stats + "0\n").payload)
                   .reset_hwm);
  for (const std::string bad : {"yes", "true", "2", "01", "", " 1", "1 "}) {
    EXPECT_THROW((void)decode_request(steady + bad + "\n"), ConfigError) << bad;
    EXPECT_THROW((void)decode_response(answer + bad + "\n"), ConfigError) << bad;
    EXPECT_THROW((void)decode_request(stats + bad + "\n"), ConfigError) << bad;
    EXPECT_THROW((void)decode_request("liquid3d-serve 1 steady\nid 1\n"
                                      "t.alternate_flow_direction " +
                                      bad + "\n"),
                 ConfigError)
        << bad;
  }
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

template <class T, class F>
std::optional<T> accepted(F&& parse) {
  try {
    return parse();
  } catch (const ConfigError&) {
    return std::nullopt;
  }
}

TEST(ServeEnvelope, NumberParsingMatchesTheStrictParsersSpellingBySpelling) {
  // The codec's fast path (std::from_chars) retries everything it does not
  // take whole through parse_double/parse_u64: the set of accepted
  // spellings and every decoded bit must be theirs.
  const char* spellings[] = {
      "1",        "+1",     " 1",      "\t1",     "1 ",       "-0",
      "0x1p3",    "0X10",   "4.9e-324", "2.4e-324", "1e-400", "-1e-400",
      "1e309",    "-1e309", "inf",     "-inf",    "Infinity", "nan",
      "-nan",     "NaN",    "nan(123)", "60x",    "",         "1,",
      "1.5e",     ".5",     "5.",      "1e+2",    "1E2",      "0.1",
      "0.59999999999999998", "007",    "-1",      "--1",      "1e",
      "18446744073709551615", "18446744073709551616", "4000000000", "."};
  for (const std::string s : spellings) {
    const auto strict_f64 =
        accepted<double>([&] { return parse_double(s, "strict"); });
    const auto wire_f64 = accepted<double>([&] {
      return std::get<SteadyQuery>(
                 decode_request("liquid3d-serve 1 steady\ncore_watts " + s +
                                "\n")
                     .payload)
          .core_watts;
    });
    ASSERT_EQ(strict_f64.has_value(), wire_f64.has_value()) << "'" << s << "'";
    if (strict_f64) {
      EXPECT_EQ(bits_of(*strict_f64), bits_of(*wire_f64)) << "'" << s << "'";
    }

    const auto strict_u64 =
        accepted<std::uint64_t>([&] { return parse_u64(s, "strict"); });
    const auto wire_u64 = accepted<std::uint64_t>([&] {
      return decode_request("liquid3d-serve 1 stats\nid " + s + "\n").id;
    });
    EXPECT_EQ(strict_u64, wire_u64) << "'" << s << "'";
  }
}

TEST(ServeEnvelope, PercentSeventeenGRequestDecodesToTheSameBits) {
  // sample_steady() as the %.17g encoder printed it: a peer still on that
  // format interoperates without a version bump.
  const std::string old_format =
      "liquid3d-serve 1 steady\n"
      "id 42\n"
      "deadline_ms 1.5\n"
      "cooling liquid-var\n"
      "layer_pairs 2\n"
      "delivery_mode paper-nominal\n"
      "t.grid_rows 8\n"
      "t.grid_cols 9\n"
      "t.silicon_conductivity 120\n"
      "t.silicon_volumetric_heat_capacity 1630000\n"
      "t.bond_conductivity 0.33333333333333331\n"
      "t.cavity_wall_conductivity 100\n"
      "t.inlet_temperature 32.25\n"
      "t.ambient_temperature 45\n"
      "t.beol_thickness 1.2e-05\n"
      "t.beol_conductivity 2.25\n"
      "t.heat_transfer_coeff 37132\n"
      "t.coolant_heat_capacity 4183\n"
      "t.coolant_density 998\n"
      "t.coolant_conductivity 0.59999999999999998\n"
      "t.coolant_dynamic_viscosity 0.001\n"
      "t.tim_thickness 0.00013999999999999999\n"
      "t.tim_conductivity 2\n"
      "t.spreader_capacitance 40\n"
      "t.sink_capacitance 140\n"
      "t.spreader_to_sink_resistance 0.10000000000000001\n"
      "t.sink_to_ambient_resistance 0.050000000000000003\n"
      "t.alternate_flow_direction 1\n"
      "core_watts 3.125\n"
      "block_watts 0:0.5,0.14285714285714285;1:;2:2.25\n"
      "flows_ml_per_min 11,13.5\n"
      "valve_openings 0.25,0.75\n"
      "pump_setting 3\n"
      "reference_c 41.5\n"
      "max_error_c 0.01\n"
      "force_full 1\n";
  WireRequest request;
  request.id = 42;
  request.deadline_ms = 1.5;
  request.payload = sample_steady();
  const std::string current = encode_request(request);
  EXPECT_NE(current, old_format);  // the spelling changed...
  // ...the bits did not: shortest round-trip text is a function of the
  // bits, so equal re-encodings mean every field decoded identically.
  const WireRequest old_decoded = decode_request(old_format);
  EXPECT_EQ(encode_request(old_decoded), current);
  const auto& q = std::get<SteadyQuery>(old_decoded.payload);
  EXPECT_EQ(bits_of(q.config.thermal.bond_conductivity), bits_of(1.0 / 3.0));
  EXPECT_EQ(bits_of(q.config.thermal.tim_thickness),
            bits_of(ThermalModelParams{}.tim_thickness));
}

TEST(ServeEnvelope, PeekRequestIdSalvagesBrokenEnvelopes) {
  EXPECT_EQ(peek_request_id("liquid3d-serve 1 steady\nid 42\nbogus_key 1\n"),
            42u);
  EXPECT_EQ(peek_request_id("garbage with no id line"), 0u);
  EXPECT_EQ(peek_request_id("liquid3d-serve 1 steady\nid junk\n"), 0u);
}

TEST(ServeEnvelope, WireErrorCodeNamesRoundTrip) {
  // Every server-sent code must survive the wire; client-local codes
  // (protocol, disconnected) never appear in an ErrorReply.
  for (const WireErrorCode code :
       {WireErrorCode::kBadRequest, WireErrorCode::kOverloaded,
        WireErrorCode::kDeadlineExceeded, WireErrorCode::kShuttingDown,
        WireErrorCode::kSolver, WireErrorCode::kInternal}) {
    WireResponse response;
    response.payload = ErrorReply{code, "x"};
    const WireResponse rt = roundtrip_response(response);
    EXPECT_EQ(std::get<ErrorReply>(rt.payload).code, code) << to_string(code);
  }
}

}  // namespace
}  // namespace liquid3d
