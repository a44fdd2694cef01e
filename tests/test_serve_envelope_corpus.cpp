// Seeded mutation corpus for the network-facing envelope decoders
// (decode_request, decode_response, peek_request_id).  The seeds are one
// encoded envelope per request and response tag, kept in
// tests/corpus/envelope/; every mutant is derived from them
// deterministically, so a failure reproduces from its seed and index
// alone.  Mutations: byte flip, truncation, duplicated line, splice of two
// seeds, and every digit run replaced by boundary integers (the values an
// index or count taken off the wire must survive).  Invariants, per input:
//   * decoding succeeds or throws ConfigError/WireError — nothing else;
//   * decode -> encode -> decode -> encode reproduces the first encoding
//     (decode -> encode is a fixed point);
//   * peek_request_id never throws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "serve/net/envelope.hpp"

namespace liquid3d {
namespace {

std::vector<std::string> load_seeds() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(LIQUID3D_TEST_CORPUS_DIR) / "envelope")) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // directory order is unspecified
  std::vector<std::string> seeds;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    seeds.push_back(text.str());
  }
  return seeds;
}

/// splitmix64: a fixed, platform-independent mutation schedule.
struct Mix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

std::string flip_byte(std::string s, Mix& mix) {
  if (!s.empty()) s[mix.below(s.size())] ^= static_cast<char>(1 + mix.below(255));
  return s;
}

std::string truncate(const std::string& s, Mix& mix) {
  return s.substr(0, mix.below(s.size() + 1));
}

std::string duplicate_line(const std::string& s, Mix& mix) {
  const std::size_t start = s.rfind('\n', mix.below(s.size())) + 1;  // npos+1 = 0
  const std::size_t end = std::min(s.find('\n', start), s.size() - 1) + 1;
  return s.substr(0, end) + s.substr(start, end - start) + s.substr(end);
}

std::string splice(const std::string& a, const std::string& b, Mix& mix) {
  return a.substr(0, mix.below(a.size() + 1)) + b.substr(mix.below(b.size() + 1));
}

/// Empty when every invariant holds for `input`, else what broke; counts
/// the inputs that decode in `decoded`.
template <class Decode, class Encode>
std::string violation(const std::string& input, Decode decode, Encode encode,
                      std::size_t& decoded) {
  std::string once;
  try {
    once = encode(decode(input));
    ++decoded;
  } catch (const ConfigError&) {
    return {};
  } catch (const WireError&) {
    return {};
  } catch (const std::exception& e) {
    return std::string("decode threw a non-ConfigError: ") + e.what();
  }
  try {
    const std::string twice = encode(decode(once));
    if (twice != once) return "decode -> encode is not a fixed point";
  } catch (const std::exception& e) {
    return std::string("re-encoded envelope failed to decode: ") + e.what();
  }
  return {};
}

std::string check(const std::string& input, std::size_t& decoded) {
  const auto request = violation(
      input, [](const std::string& t) { return decode_request(t); },
      [](const WireRequest& r) { return encode_request(r); }, decoded);
  if (!request.empty()) return "request: " + request;
  const auto response = violation(
      input, [](const std::string& t) { return decode_response(t); },
      [](const WireResponse& r) { return encode_response(r); }, decoded);
  if (!response.empty()) return "response: " + response;
  try {
    (void)peek_request_id(input);
  } catch (const std::exception& e) {
    return std::string("peek_request_id threw: ") + e.what();
  }
  return {};
}

std::string escaped(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (std::isprint(c) != 0 && c != '\\') {
      out += ch;
    } else {
      static const char* hex = "0123456789abcdef";
      out += "\\x";
      out += hex[c >> 4];
      out += hex[c & 0xf];
    }
  }
  return out;
}

TEST(ServeEnvelopeCorpus, SeedsCoverEveryTagAndRoundTrip) {
  const std::vector<std::string> seeds = load_seeds();
  ASSERT_EQ(seeds.size(), 12u) << "one seed per request and response tag";
  std::size_t requests = 0;
  std::size_t decoded = 0;
  for (const std::string& seed : seeds) {
    EXPECT_EQ(check(seed, decoded), "") << escaped(seed);
    try {
      EXPECT_EQ(encode_request(decode_request(seed)), seed);
      ++requests;
    } catch (const ConfigError&) {
      EXPECT_EQ(encode_response(decode_response(seed)), seed);
    }
  }
  EXPECT_EQ(requests, 6u);
  EXPECT_EQ(decoded, seeds.size());
}

TEST(ServeEnvelopeCorpus, MutantsDecodeOrThrowConfigErrorAndReencodeStably) {
  const std::vector<std::string> seeds = load_seeds();
  ASSERT_FALSE(seeds.empty());
  constexpr std::size_t kPerSeed = 200;  // per random mutation kind
  std::size_t inputs = 0;
  std::size_t decoded = 0;
  auto expect_ok = [&](const std::string& input, const std::string& how) {
    ++inputs;
    const std::string broken = check(input, decoded);
    EXPECT_EQ(broken, "") << how << "\n  input: " << escaped(input);
  };
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const std::string& seed = seeds[s];
    Mix mix{0x5eed0000ULL + s};
    for (std::size_t i = 0; i < kPerSeed; ++i) {
      const std::string at = "seed " + std::to_string(s) + " #" + std::to_string(i);
      expect_ok(flip_byte(seed, mix), "flip " + at);
      expect_ok(truncate(seed, mix), "truncate " + at);
      expect_ok(duplicate_line(seed, mix), "duplicate line " + at);
      expect_ok(splice(seed, seeds[mix.below(seeds.size())], mix), "splice " + at);
    }
    // Every digit run, replaced by each boundary integer.
    for (std::size_t pos = 0; pos < seed.size();) {
      if (std::isdigit(static_cast<unsigned char>(seed[pos])) == 0) {
        ++pos;
        continue;
      }
      std::size_t end = pos;
      while (end < seed.size() && std::isdigit(static_cast<unsigned char>(seed[end])) != 0) {
        ++end;
      }
      for (const char* value : {"4000000000", "18446744073709551615", "99999999999999999999"}) {
        expect_ok(seed.substr(0, pos) + value + seed.substr(end),
                  "digits at " + std::to_string(pos) + " of seed " + std::to_string(s) +
                      " -> " + value);
      }
      pos = end;
    }
  }
  // Enough mutants, and enough of them decode for the fixed-point check to
  // bite (most flips land in a value and stay well-formed or near it).
  EXPECT_GT(inputs, 10000u);
  EXPECT_GT(decoded, inputs / 4);
}

}  // namespace
}  // namespace liquid3d
