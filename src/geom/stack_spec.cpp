#include "geom/stack_spec.hpp"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "geom/niagara.hpp"

namespace liquid3d {

CoolingType cooling_type_from_name(std::string_view s) {
  if (s == "air") return CoolingType::kAir;
  if (s == "liquid") return CoolingType::kLiquid;
  throw ConfigError("unknown cooling type '" + std::string(s) +
                    "' (expected 'air' or 'liquid')");
}

BlockType block_type_from_name(std::string_view s) {
  if (s == "core") return BlockType::kCore;
  if (s == "l2") return BlockType::kL2Cache;
  if (s == "xbar") return BlockType::kCrossbar;
  if (s == "misc") return BlockType::kMisc;
  throw ConfigError("unknown block type '" + std::string(s) +
                    "' (expected core, l2, xbar, or misc)");
}

namespace {

[[noreturn]] void fail_field(const std::string& field, const std::string& msg) {
  throw ConfigError("stack spec field '" + field + "': " + msg);
}

/// Shared outline tolerance, matching Stack3D::add_layer.
constexpr double kOutlineEps = 1e-12;

std::string joined_preset_names() {
  std::string out;
  for (const std::string& name : stack_preset_names()) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// Build the Floorplan for an inline layer; type_index counts per block
/// type in order of appearance (core 0..N-1, l2 0..M-1, ...), mirroring the
/// hand-written Niagara builders.
Floorplan build_inline_floorplan(const StackSpec& spec, std::size_t layer) {
  const StackLayerEntry& entry = spec.layers[layer];
  Floorplan fp(spec.name + ".layer" + std::to_string(layer), spec.die_width,
               spec.die_height);
  std::array<std::size_t, 4> type_counts{};
  for (const BlockEntry& b : entry.blocks) {
    std::size_t& index = type_counts[static_cast<std::size_t>(b.type)];
    fp.add_block({b.name, b.type, b.rect, index});
    ++index;
  }
  return fp;
}

bool cavities_equal(const CavitySpec& a, const CavitySpec& b) {
  return a.channel_count == b.channel_count &&
         a.channel_width == b.channel_width &&
         a.channel_height == b.channel_height &&
         a.wall_thickness == b.wall_thickness && a.pitch == b.pitch &&
         a.cavity_thickness == b.cavity_thickness;
}

}  // namespace

void validate_stack_spec(const StackSpec& spec) {
  if (spec.name.empty()) fail_field("name", "must not be empty");
  if (!(spec.die_width > 0.0)) fail_field("die_width", "must be positive");
  if (!(spec.die_height > 0.0)) fail_field("die_height", "must be positive");
  if (spec.layers.empty()) fail_field("layers", "need at least one layer");

  std::size_t cores = 0;
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const StackLayerEntry& layer = spec.layers[i];
    const std::string prefix = "layers[" + std::to_string(i) + "]";
    if (!(layer.die_thickness > 0.0)) {
      fail_field(prefix + ".die_thickness", "must be positive");
    }
    if (!(layer.beol_thickness > 0.0)) {
      fail_field(prefix + ".beol_thickness", "must be positive");
    }
    if (!layer.floorplan.empty()) {
      if (!layer.blocks.empty()) {
        fail_field(prefix, "a floorplan preset and inline blocks are mutually "
                           "exclusive");
      }
      Floorplan fp = [&] {
        try {
          return make_floorplan_preset(layer.floorplan);
        } catch (const ConfigError& e) {
          fail_field(prefix + ".floorplan", e.what());
        }
      }();
      if (std::abs(fp.width() - spec.die_width) >= kOutlineEps ||
          std::abs(fp.height() - spec.die_height) >= kOutlineEps) {
        fail_field(prefix + ".floorplan",
                   "preset '" + layer.floorplan +
                       "' outline does not match die_width x die_height");
      }
      cores += fp.count(BlockType::kCore);
    } else {
      if (layer.blocks.empty()) {
        fail_field(prefix + ".blocks",
                   "layer needs a floorplan preset or at least one inline "
                   "block");
      }
      for (std::size_t j = 0; j < layer.blocks.size(); ++j) {
        const BlockEntry& b = layer.blocks[j];
        const std::string bfield =
            prefix + ".blocks[" + std::to_string(j) + "].name";
        if (b.name.empty()) fail_field(bfield, "must not be empty");
        for (const char c : b.name) {
          if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            fail_field(bfield, "must not contain whitespace ('" + b.name + "')");
          }
        }
        if (b.type == BlockType::kCore) ++cores;
      }
      // Trial-build the floorplan so outline/overlap violations surface with
      // the layer named, not just the block.
      try {
        (void)build_inline_floorplan(spec, i);
      } catch (const ConfigError& e) {
        fail_field(prefix + ".blocks", e.what());
      }
    }
  }
  if (cores == 0) fail_field("layers", "stack has no core blocks");

  if (spec.cooling == CoolingType::kAir) {
    if (!spec.cavities.empty()) {
      fail_field("cavities", "air-cooled stacks must not declare cavities");
    }
  } else {
    const std::size_t expected = spec.layers.size() + 1;
    if (spec.cavities.empty()) {
      fail_field("cavities", "liquid-cooled stacks need a cavity entry");
    }
    if (spec.cavities.size() != 1 && spec.cavities.size() != expected) {
      fail_field("cavities",
                 "expected 1 uniform entry or layer_count+1 (= " +
                     std::to_string(expected) + ") entries, got " +
                     std::to_string(spec.cavities.size()));
    }
    for (std::size_t i = 1; i < spec.cavities.size(); ++i) {
      if (!cavities_equal(spec.cavities[i], spec.cavities.front())) {
        fail_field("cavities[" + std::to_string(i) + "]",
                   "per-cavity geometry must be uniform (the stack model "
                   "carries one cavity spec)");
      }
    }
    for (std::size_t i = 0; i < spec.cavities.size(); ++i) {
      const CavitySpec& c = spec.cavities[i];
      const std::string prefix = "cavities[" + std::to_string(i) + "]";
      if (c.channel_count == 0) {
        fail_field(prefix + ".channel_count", "need at least one channel");
      }
      if (!(c.channel_width > 0.0)) {
        fail_field(prefix + ".channel_width", "must be positive");
      }
      if (!(c.channel_height > 0.0)) {
        fail_field(prefix + ".channel_height", "must be positive");
      }
      if (!(c.wall_thickness > 0.0)) {
        fail_field(prefix + ".wall_thickness", "must be positive");
      }
      if (!(c.pitch >= c.channel_width)) {
        fail_field(prefix + ".pitch", "must be >= channel_width");
      }
      if (!(c.cavity_thickness > 0.0)) {
        fail_field(prefix + ".cavity_thickness", "must be positive");
      }
      const double band = static_cast<double>(c.channel_count) * c.pitch;
      if (band > spec.die_width + kOutlineEps) {
        fail_field(prefix + ".channel_count",
                   "channel band (count x pitch) exceeds die_width");
      }
    }
  }

  if (!(spec.tsvs.side > 0.0)) fail_field("tsvs.side", "must be positive");
  if (!(spec.tsvs.cu_conductivity > 0.0)) {
    fail_field("tsvs.cu_conductivity", "must be positive");
  }
}

Stack3D make_stack(const StackSpec& spec) {
  validate_stack_spec(spec);
  Stack3D stack(spec.name, spec.cooling);
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const StackLayerEntry& layer = spec.layers[i];
    Floorplan fp = layer.floorplan.empty()
                       ? build_inline_floorplan(spec, i)
                       : make_floorplan_preset(layer.floorplan);
    stack.add_layer(
        LayerSpec{std::move(fp), layer.die_thickness, layer.beol_thickness});
  }
  if (spec.cooling == CoolingType::kLiquid) {
    stack.set_cavities(spec.cavities.front());
  }
  stack.set_tsvs(spec.tsvs);
  return stack;
}

const std::vector<std::string>& floorplan_preset_names() {
  static const std::vector<std::string> names = {"niagara-core",
                                                 "niagara-cache"};
  return names;
}

Floorplan make_floorplan_preset(std::string_view name) {
  if (name == "niagara-core") return make_niagara_core_die();
  if (name == "niagara-cache") return make_niagara_cache_die();
  std::string known;
  for (const std::string& n : floorplan_preset_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw ConfigError("unknown floorplan preset '" + std::string(name) +
                    "' (known: " + known + ")");
}

const std::vector<std::string>& stack_preset_names() {
  static const std::vector<std::string> names = {"niagara-2layer",
                                                 "niagara-4layer"};
  return names;
}

bool is_stack_preset(std::string_view name) {
  for (const std::string& n : stack_preset_names()) {
    if (n == name) return true;
  }
  return false;
}

StackSpec stack_preset(std::string_view name, CoolingType cooling) {
  if (name == "niagara-2layer") return niagara_stack_spec(1, cooling);
  if (name == "niagara-4layer") return niagara_stack_spec(2, cooling);
  throw ConfigError("unknown stack preset '" + std::string(name) +
                    "' (known: " + joined_preset_names() + ")");
}

StackSpec niagara_stack_spec(std::size_t layer_pairs, CoolingType cooling) {
  LIQUID3D_REQUIRE(layer_pairs >= 1 && layer_pairs <= 4,
                   "supported systems have 1..4 core/cache layer pairs");
  StackSpec spec;
  spec.name = std::to_string(2 * layer_pairs) + "layer_" +
              std::string(to_string(cooling));
  spec.cooling = cooling;
  // Die outline and per-layer thicknesses exist once: the outline in
  // geom/niagara.hpp, the thicknesses as StackLayerEntry's defaults (which
  // mirror LayerSpec's Table I/III values).
  spec.die_width = kDieWidth;
  spec.die_height = kDieHeight;
  for (std::size_t p = 0; p < layer_pairs; ++p) {
    StackLayerEntry core;
    core.floorplan = "niagara-core";
    spec.layers.push_back(std::move(core));
    StackLayerEntry cache;
    cache.floorplan = "niagara-cache";
    spec.layers.push_back(std::move(cache));
  }
  if (cooling == CoolingType::kLiquid) spec.cavities = {CavitySpec{}};
  return spec;
}

// -- Stack files --------------------------------------------------------------

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> split_tokens(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string token;
  while (in >> token) out.push_back(token);
  return out;
}

enum class Section { kNone, kStack, kLayer, kCavity, kTsv };

}  // namespace

StackSpec parse_stack_file(std::istream& in, const std::string& source) {
  StackSpec spec;
  Section section = Section::kNone;
  bool stack_seen = false;
  std::size_t line_no = 0;
  std::string line;

  // A [[noreturn]] callable, so value-returning helpers may end in fail().
  struct Fail {
    const std::string& source;
    const std::size_t& line_no;
    [[noreturn]] void operator()(const std::string& msg) const {
      throw ConfigError(source + ":" + std::to_string(line_no) + ": " + msg);
    }
  };
  const Fail fail{source, line_no};
  auto parse_num = [&](const std::string& value,
                       const std::string& key) -> double {
    try {
      return parse_double(value, "key '" + key + "'");
    } catch (const ConfigError& e) {
      fail(e.what());
    }
  };
  auto parse_count = [&](const std::string& value,
                         const std::string& key) -> std::size_t {
    try {
      return static_cast<std::size_t>(parse_u64(value, "key '" + key + "'"));
    } catch (const ConfigError& e) {
      fail(e.what());
    }
  };

  while (std::getline(in, line)) {
    ++line_no;
    const std::string text = trim(line);
    if (text.empty() || text[0] == '#') continue;

    if (text.front() == '[') {
      if (text.back() != ']') fail("unterminated section header '" + text + "'");
      const std::string name = text.substr(1, text.size() - 2);
      if (name == "stack") {
        if (stack_seen) fail("duplicate [stack] section");
        stack_seen = true;
        section = Section::kStack;
      } else if (name == "layer") {
        spec.layers.emplace_back();
        section = Section::kLayer;
      } else if (name == "cavity") {
        spec.cavities.emplace_back();
        section = Section::kCavity;
      } else if (name == "tsv") {
        section = Section::kTsv;
      } else {
        fail("unknown section '[" + name + "]' (expected [stack], [layer], "
             "[cavity], or [tsv])");
      }
      continue;
    }

    if (section == Section::kLayer && text.rfind("block", 0) == 0 &&
        (text.size() == 5 ||
         std::isspace(static_cast<unsigned char>(text[5])) != 0)) {
      const std::vector<std::string> tokens = split_tokens(text);
      if (tokens.size() != 7) {
        fail("block row needs 'block NAME TYPE x y w h' (7 tokens, got " +
             std::to_string(tokens.size()) + ")");
      }
      BlockEntry block;
      block.name = tokens[1];
      try {
        block.type = block_type_from_name(tokens[2]);
      } catch (const ConfigError& e) {
        fail("block '" + block.name + "': " + e.what());
      }
      block.rect.x = parse_num(tokens[3], "block " + block.name + " x");
      block.rect.y = parse_num(tokens[4], "block " + block.name + " y");
      block.rect.w = parse_num(tokens[5], "block " + block.name + " w");
      block.rect.h = parse_num(tokens[6], "block " + block.name + " h");
      spec.layers.back().blocks.push_back(std::move(block));
      continue;
    }

    const std::size_t eq = text.find('=');
    if (eq == std::string::npos) {
      fail("expected 'key = value' (or a section header), got '" + text + "'");
    }
    const std::string key = trim(text.substr(0, eq));
    const std::string value = trim(text.substr(eq + 1));
    if (key.empty()) fail("empty key before '='");
    if (value.empty()) fail("key '" + key + "': empty value");

    switch (section) {
      case Section::kNone:
        fail("key '" + key + "' outside any section (start with [stack])");
        break;
      case Section::kStack:
        if (key == "name") {
          spec.name = value;
        } else if (key == "cooling") {
          try {
            spec.cooling = cooling_type_from_name(value);
          } catch (const ConfigError& e) {
            fail("key 'cooling': " + std::string(e.what()));
          }
        } else if (key == "die_width") {
          spec.die_width = parse_num(value, key);
        } else if (key == "die_height") {
          spec.die_height = parse_num(value, key);
        } else {
          fail("unknown [stack] key '" + key + "'");
        }
        break;
      case Section::kLayer:
        if (key == "floorplan") {
          spec.layers.back().floorplan = value;
        } else if (key == "die_thickness") {
          spec.layers.back().die_thickness = parse_num(value, key);
        } else if (key == "beol_thickness") {
          spec.layers.back().beol_thickness = parse_num(value, key);
        } else {
          fail("unknown [layer] key '" + key + "'");
        }
        break;
      case Section::kCavity: {
        CavitySpec& cavity = spec.cavities.back();
        if (key == "channel_count") {
          cavity.channel_count = parse_count(value, key);
        } else if (key == "channel_width") {
          cavity.channel_width = parse_num(value, key);
        } else if (key == "channel_height") {
          cavity.channel_height = parse_num(value, key);
        } else if (key == "wall_thickness") {
          cavity.wall_thickness = parse_num(value, key);
        } else if (key == "pitch") {
          cavity.pitch = parse_num(value, key);
        } else if (key == "cavity_thickness") {
          cavity.cavity_thickness = parse_num(value, key);
        } else {
          fail("unknown [cavity] key '" + key + "'");
        }
        break;
      }
      case Section::kTsv:
        if (key == "count") {
          spec.tsvs.count = parse_count(value, key);
        } else if (key == "side") {
          spec.tsvs.side = parse_num(value, key);
        } else if (key == "cu_conductivity") {
          spec.tsvs.cu_conductivity = parse_num(value, key);
        } else {
          fail("unknown [tsv] key '" + key + "'");
        }
        break;
    }
  }

  if (!stack_seen) {
    ++line_no;  // point past the end of input
    fail("missing [stack] section");
  }
  return spec;
}

StackSpec load_stack_file(const std::string& path) {
  std::ifstream in(path);
  LIQUID3D_REQUIRE(in.good(), "cannot open stack file '" + path + "'");
  return parse_stack_file(in, path);
}

void write_stack_file(std::ostream& out, const StackSpec& spec) {
  out << "#liquid3d-stack v1\n";
  out << "[stack]\n";
  out << "name = " << spec.name << "\n";
  out << "cooling = " << to_string(spec.cooling) << "\n";
  out << "die_width = " << fmt_double(spec.die_width) << "\n";
  out << "die_height = " << fmt_double(spec.die_height) << "\n";
  for (const StackLayerEntry& layer : spec.layers) {
    out << "\n[layer]\n";
    if (!layer.floorplan.empty()) {
      out << "floorplan = " << layer.floorplan << "\n";
    }
    out << "die_thickness = " << fmt_double(layer.die_thickness) << "\n";
    out << "beol_thickness = " << fmt_double(layer.beol_thickness) << "\n";
    for (const BlockEntry& b : layer.blocks) {
      out << "block " << b.name << " " << to_string(b.type) << " "
          << fmt_double(b.rect.x) << " " << fmt_double(b.rect.y) << " "
          << fmt_double(b.rect.w) << " " << fmt_double(b.rect.h) << "\n";
    }
  }
  for (const CavitySpec& c : spec.cavities) {
    out << "\n[cavity]\n";
    out << "channel_count = " << c.channel_count << "\n";
    out << "channel_width = " << fmt_double(c.channel_width) << "\n";
    out << "channel_height = " << fmt_double(c.channel_height) << "\n";
    out << "wall_thickness = " << fmt_double(c.wall_thickness) << "\n";
    out << "pitch = " << fmt_double(c.pitch) << "\n";
    out << "cavity_thickness = " << fmt_double(c.cavity_thickness) << "\n";
  }
  out << "\n[tsv]\n";
  out << "count = " << spec.tsvs.count << "\n";
  out << "side = " << fmt_double(spec.tsvs.side) << "\n";
  out << "cu_conductivity = " << fmt_double(spec.tsvs.cu_conductivity) << "\n";
}

// -- #suite metadata encoding -------------------------------------------------

std::string encode_stack_spec(const StackSpec& spec) {
  std::ostringstream text;
  write_stack_file(text, spec);
  const std::string raw = text.str();
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size() + 16);
  for (const char ch : raw) {
    const unsigned char c = static_cast<unsigned char>(ch);
    // Escape '%' itself plus anything a whitespace tokenizer could split on
    // (space, tabs, newlines, all other control bytes).
    if (c == '%' || c <= 0x20 || c == 0x7f) {
      out += '%';
      out += hex[c >> 4];
      out += hex[c & 0xf];
    } else {
      out += ch;
    }
  }
  return out;
}

StackSpec decode_stack_spec(const std::string& token,
                            const std::string& source) {
  auto hex_digit = [&](char c) -> int {
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
    LIQUID3D_REQUIRE(i + 2 < token.size(),
                     source + ": truncated %XX escape in stack token");
    const int hi = hex_digit(token[i + 1]);
    const int lo = hex_digit(token[i + 2]);
    LIQUID3D_REQUIRE(hi >= 0 && lo >= 0,
                     source + ": malformed %XX escape in stack token");
    raw += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  std::istringstream in(raw);
  return parse_stack_file(in, source);
}

// -- Scenario axis resolution -------------------------------------------------

StackSpec resolve_stack_axis(const std::string& axis, CoolingType cooling,
                             const std::vector<StackSpec>& extra) {
  LIQUID3D_REQUIRE(!axis.empty(), "stack axis value is empty");
  auto check_cooling = [&](const StackSpec& spec) {
    LIQUID3D_REQUIRE(spec.cooling == cooling,
                     "stack '" + axis + "' is " +
                         std::string(to_string(spec.cooling)) +
                         "-cooled but the scenario requires " +
                         std::string(to_string(cooling)) + " cooling");
  };
  for (const StackSpec& s : extra) {
    if (s.name == axis) {
      check_cooling(s);
      return s;
    }
  }
  if (is_stack_preset(axis)) return stack_preset(axis, cooling);
  std::error_code ec;
  if (!std::filesystem::exists(axis, ec) || ec) {
    throw ConfigError("stack '" + axis +
                      "' is not an embedded spec, not a preset (known: " +
                      joined_preset_names() + "), and not a readable file");
  }
  StackSpec spec = load_stack_file(axis);
  // The axis string becomes the spec's identity, so a plan that embeds this
  // spec into `#suite` metadata resolves it by name on a remote worker with
  // no filesystem access to the original file.
  spec.name = axis;
  check_cooling(spec);
  return spec;
}

}  // namespace liquid3d
