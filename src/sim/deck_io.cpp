#include "sim/deck_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "util/error.hpp"

namespace minivpic::sim {

namespace {

std::string trim(const std::string& s) {
  const auto a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  const auto b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

std::vector<DeckSection> tokenize(std::istream& in) {
  std::vector<DeckSection> sections;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      MV_REQUIRE(line.back() == ']',
                 "deck line " << lineno << ": unterminated section header");
      sections.push_back({trim(line.substr(1, line.size() - 2)), {}, {}, lineno});
      MV_REQUIRE(!sections.back().header.empty(),
                 "deck line " << lineno << ": empty section header");
      continue;
    }
    MV_REQUIRE(!sections.empty(),
               "deck line " << lineno << ": key before any [section]");
    // [campaign] values are comma lists ("laser.a0 = 0.05, 0.10") that the
    // whitespace tokenizer below would mangle; keep the raw lines and let
    // campaign::CampaignSpec parse them with its own grammar.
    if (sections.back().header == "campaign") {
      sections.back().raw_lines.push_back(line);
      continue;
    }
    // Multiple `key = value` pairs per line: split on '=' with the key
    // being the last token before it and the value the first after it.
    std::istringstream ss(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (ss >> tok) {
      // Normalize "k=v", "k =v", "k= v" into separate tokens.
      std::string cur;
      for (char c : tok) {
        if (c == '=') {
          if (!cur.empty()) tokens.push_back(cur);
          tokens.push_back("=");
          cur.clear();
        } else {
          cur += c;
        }
      }
      if (!cur.empty()) tokens.push_back(cur);
    }
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      if (tokens[t] != "=") continue;
      MV_REQUIRE(t > 0 && t + 1 < tokens.size() && tokens[t - 1] != "=" &&
                     tokens[t + 1] != "=",
                 "deck line " << lineno << ": malformed key = value");
      sections.back().values[tokens[t - 1]] = tokens[t + 1];
    }
  }
  return sections;
}

double to_double(const DeckSection& s, const std::string& key, double fallback,
                 bool* used = nullptr) {
  const auto it = s.values.find(key);
  if (it == s.values.end()) return fallback;
  if (used != nullptr) *used = true;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  MV_REQUIRE(end != nullptr && *end == '\0',
             "deck [" << s.header << "] " << key << ": not a number: "
                      << it->second);
  return v;
}

int to_int(const DeckSection& s, const std::string& key, int fallback) {
  const double v = to_double(s, key, fallback);
  MV_REQUIRE(v == std::int64_t(v),
             "deck [" << s.header << "] " << key << ": expected an integer");
  return int(v);
}

bool to_bool(const DeckSection& s, const std::string& key, bool fallback) {
  const auto it = s.values.find(key);
  if (it == s.values.end()) return fallback;
  if (it->second == "true" || it->second == "1" || it->second == "yes")
    return true;
  if (it->second == "false" || it->second == "0" || it->second == "no")
    return false;
  MV_REQUIRE(false, "deck [" << s.header << "] " << key
                             << ": not a boolean: " << it->second);
  return fallback;
}

grid::BoundaryKind field_bc(const DeckSection& s, const std::string& key) {
  const auto it = s.values.find(key);
  if (it == s.values.end()) return grid::BoundaryKind::kPeriodic;
  if (it->second == "periodic") return grid::BoundaryKind::kPeriodic;
  if (it->second == "pec") return grid::BoundaryKind::kPec;
  if (it->second == "absorbing") return grid::BoundaryKind::kAbsorbing;
  MV_REQUIRE(false, "deck [grid] " << key << ": unknown boundary '"
                                   << it->second << "'");
  return grid::BoundaryKind::kPeriodic;
}

particles::ParticleBc particle_bc(const DeckSection& s,
                                  const std::string& key) {
  const auto it = s.values.find(key);
  if (it == s.values.end()) return particles::ParticleBc::kPeriodic;
  if (it->second == "periodic") return particles::ParticleBc::kPeriodic;
  if (it->second == "reflect") return particles::ParticleBc::kReflect;
  if (it->second == "absorb") return particles::ParticleBc::kAbsorb;
  if (it->second == "reflux") return particles::ParticleBc::kReflux;
  MV_REQUIRE(false, "deck [grid] " << key << ": unknown particle BC '"
                                   << it->second << "'");
  return particles::ParticleBc::kPeriodic;
}

void check_known(const DeckSection& s,
                 std::initializer_list<const char*> keys) {
  for (const auto& [key, value] : s.values) {
    (void)value;
    bool ok = false;
    for (const char* k : keys) ok |= (key == k);
    MV_REQUIRE(ok, "deck [" << s.header << "]: unknown key '" << key << "'");
  }
}

/// Word `n` (0-based) of a section header split at whitespace, as
/// `std::istream >> std::string` reads it; empty past the last word.
std::string header_word(const std::string& header, int n) {
  const auto space = [&](std::size_t at) {
    return std::isspace(std::uint8_t(header[at])) != 0;
  };
  std::size_t at = 0;
  for (int w = 0;; ++w) {
    while (at < header.size() && space(at)) ++at;
    const std::size_t begin = at;
    while (at < header.size() && !space(at)) ++at;
    if (w == n || begin == at) return header.substr(begin, at - begin);
  }
}

/// Builds one non-campaign section into `deck`: a grid, laser or control
/// section sets the fields it owns, a species or collision section appends
/// its entry. Unknown sections, unknown keys and bad values throw.
void build_section(const DeckSection& s, Deck& deck) {
  const std::string kind = header_word(s.header, 0);
  if (kind == "grid") {
    check_known(s, {"nx", "ny", "nz", "dx", "dy", "dz", "x0", "y0", "z0",
                    "dt", "cfl", "boundary_x", "boundary_y", "boundary_z",
                    "particle_bc_x", "particle_bc_y", "particle_bc_z"});
    deck.grid.nx = to_int(s, "nx", 1);
    deck.grid.ny = to_int(s, "ny", 1);
    deck.grid.nz = to_int(s, "nz", 1);
    deck.grid.dx = to_double(s, "dx", 1.0);
    deck.grid.dy = to_double(s, "dy", deck.grid.dx);
    deck.grid.dz = to_double(s, "dz", deck.grid.dx);
    deck.grid.x0 = to_double(s, "x0", 0.0);
    deck.grid.y0 = to_double(s, "y0", 0.0);
    deck.grid.z0 = to_double(s, "z0", 0.0);
    deck.grid.dt = to_double(s, "dt", 0.0);
    deck.grid.cfl = to_double(s, "cfl", 0.99);
    for (int axis = 0; axis < 3; ++axis) {
      const std::string suffix(1, char('x' + axis));
      const auto kind_bc = field_bc(s, "boundary_" + suffix);
      deck.grid.boundary[std::size_t(2 * axis)] = kind_bc;
      deck.grid.boundary[std::size_t(2 * axis + 1)] = kind_bc;
      const auto pbc = particle_bc(s, "particle_bc_" + suffix);
      deck.particle_bc[std::size_t(2 * axis)] = pbc;
      deck.particle_bc[std::size_t(2 * axis + 1)] = pbc;
    }
  } else if (kind == "species") {
    check_known(s, {"q", "m", "ppc", "density", "uth", "uth_x", "uth_y",
                    "uth_z", "drift_x", "drift_y", "drift_z", "seed",
                    "mobile", "reflux_uth", "slab_x0", "slab_x1"});
    SpeciesConfig sc;
    sc.name = header_word(s.header, 1);
    MV_REQUIRE(!sc.name.empty(),
               "deck line " << s.line << ": species needs a name");
    sc.q = to_double(s, "q", -1.0);
    sc.m = to_double(s, "m", 1.0);
    sc.load.ppc = to_int(s, "ppc", 8);
    sc.load.density = to_double(s, "density", 1.0);
    sc.load.uth = to_double(s, "uth", 0.0);
    sc.load.uth3 = {to_double(s, "uth_x", 0.0), to_double(s, "uth_y", 0.0),
                    to_double(s, "uth_z", 0.0)};
    sc.load.drift = {to_double(s, "drift_x", 0.0),
                     to_double(s, "drift_y", 0.0),
                     to_double(s, "drift_z", 0.0)};
    sc.load.seed = std::uint64_t(to_double(s, "seed", 12345));
    sc.mobile = to_bool(s, "mobile", true);
    sc.reflux_uth = to_double(s, "reflux_uth", -1.0);
    bool has_slab = false;
    const double x0 = to_double(s, "slab_x0", 0.0, &has_slab);
    const double x1 = to_double(s, "slab_x1", 0.0, &has_slab);
    if (has_slab) {
      MV_REQUIRE(x1 > x0, "deck species " << sc.name
                                          << ": slab_x1 must exceed slab_x0");
      sc.load.profile = [x0, x1](double x, double, double) {
        return (x >= x0 && x < x1) ? 1.0 : 0.0;
      };
    }
    deck.species.push_back(std::move(sc));
  } else if (kind == "laser") {
    check_known(s, {"omega0", "a0", "ramp", "duration", "plane",
                    "polarize_z"});
    field::LaserConfig lc;
    lc.omega0 = to_double(s, "omega0", 3.0);
    lc.a0 = to_double(s, "a0", 0.01);
    lc.ramp = to_double(s, "ramp", 10.0);
    lc.duration = to_double(s, "duration", -1.0);
    lc.global_plane = to_int(s, "plane", 2);
    lc.polarize_z = to_bool(s, "polarize_z", false);
    deck.laser = lc;
  } else if (kind == "control") {
    check_known(s, {"sort_every", "clean_period", "clean_passes",
                    "init_settle_passes", "collision_seed", "pipelines",
                    "kernel", "checkpoint_every", "checkpoint_keep",
                    "health_period", "health_policy",
                    "health_max_energy_growth", "health_max_particle_loss",
                    "health_rollback_window"});
    // Steps between bin sorts (docs/SORTING.md). 0 = never sort; the
    // deck-file default stays 20 (the seed behavior every measured rate
    // in the docs assumes).
    deck.sort_period = to_int(s, "sort_every", 20);
    // Deck files are the production front end: default to hardware-aware
    // (0 = one pipeline per hardware thread). Programmatic decks keep the
    // serial default of the Deck struct.
    deck.pipelines = to_int(s, "pipelines", 0);
    // Same production-front-end convention for the advance kernel: deck
    // files default to the widest kernel the host supports; programmatic
    // decks keep the Deck struct's scalar default. Unknown names throw
    // with the valid set (particles::parse_kernel).
    if (const auto it = s.values.find("kernel"); it != s.values.end()) {
      deck.kernel = particles::parse_kernel(it->second);
    } else {
      deck.kernel = particles::Kernel::kAuto;
    }
    deck.clean_period = to_int(s, "clean_period", 0);
    deck.clean_passes = to_int(s, "clean_passes", 2);
    deck.init_settle_passes = to_int(s, "init_settle_passes", 0);
    deck.collision_seed = std::uint64_t(to_double(s, "collision_seed", 777));
    deck.checkpoint_every = to_int(s, "checkpoint_every", 0);
    deck.checkpoint_keep = to_int(s, "checkpoint_keep", 2);
    MV_REQUIRE(deck.checkpoint_every >= 0 && deck.checkpoint_keep >= 1,
               "deck [control]: invalid checkpoint cadence");
    deck.health.period = to_int(s, "health_period", 0);
    MV_REQUIRE(deck.health.period >= 0,
               "deck [control]: health_period must be >= 0");
    deck.health.max_energy_growth =
        to_double(s, "health_max_energy_growth",
                  deck.health.max_energy_growth);
    deck.health.max_particle_loss =
        to_double(s, "health_max_particle_loss",
                  deck.health.max_particle_loss);
    deck.health.rollback_window =
        to_int(s, "health_rollback_window", deck.health.rollback_window);
    if (const auto it = s.values.find("health_policy");
        it != s.values.end()) {
      if (it->second == "abort") {
        deck.health.policy = HealthPolicy::kAbort;
      } else if (it->second == "rollback") {
        deck.health.policy = HealthPolicy::kRollback;
      } else if (it->second == "warn") {
        deck.health.policy = HealthPolicy::kWarn;
      } else {
        MV_REQUIRE(false, "deck [control] health_policy: unknown policy '"
                              << it->second << "'");
      }
    }
  } else if (kind == "collision") {
    check_known(s, {"nu_scale", "period"});
    CollisionSpec cs;
    cs.species_a = header_word(s.header, 1);
    cs.species_b = header_word(s.header, 2);
    MV_REQUIRE(!cs.species_a.empty() && !cs.species_b.empty(),
               "deck line " << s.line
                            << ": [collision <a> <b>] needs two species");
    cs.nu_scale = to_double(s, "nu_scale", 0.0);
    cs.period = to_int(s, "period", 10);
    deck.collisions.push_back(std::move(cs));
  } else {
    MV_REQUIRE(false, "deck line " << s.line << ": unknown section ["
                                   << s.header << "]");
  }
}

void check_override(const DeckOverride& ov) {
  MV_REQUIRE(!ov.key.empty() && !ov.section.empty() && !ov.value.empty(),
             "deck override needs section, key and value");
}

/// An override may create a missing singleton section ("control.sort_every
/// = 10" on a deck with no [control] block); a species or collision section
/// must exist — an override cannot invent one.
void check_creatable(const DeckOverride& ov) {
  const std::string kind = ov.section.substr(0, ov.section.find(' '));
  MV_REQUIRE(kind == "grid" || kind == "control" || kind == "laser",
             "deck override '" << ov.spec() << "': no section ["
                               << ov.section << "] in the deck");
  MV_REQUIRE(kind == ov.section, "deck override '"
                                     << ov.spec() << "': malformed section ["
                                     << ov.section << "]");
}

}  // namespace

DeckOverride parse_override(const std::string& spec) {
  const auto eq = spec.find('=');
  MV_REQUIRE(eq != std::string::npos && eq > 0,
             "override '" << spec << "': expected section.key=value");
  const std::string dotted = trim(spec.substr(0, eq));
  const std::string value = trim(spec.substr(eq + 1));
  // The last dot splits section from key, so multi-word headers work:
  // "species electron.uth" -> section "species electron", key "uth".
  const auto dot = dotted.rfind('.');
  MV_REQUIRE(dot != std::string::npos && dot > 0 && dot + 1 < dotted.size(),
             "override '" << spec << "': expected section.key=value");
  MV_REQUIRE(!value.empty(), "override '" << spec << "': empty value");
  return {trim(dotted.substr(0, dot)), trim(dotted.substr(dot + 1)), value};
}

DeckSource DeckSource::from_stream(std::istream& in) {
  DeckSource src;
  src.sections_ = tokenize(in);
  return src;
}

DeckSource DeckSource::from_text(const std::string& text) {
  std::istringstream in(text);
  return from_stream(in);
}

DeckSource DeckSource::from_file(const std::string& path) {
  std::ifstream in(path);
  MV_REQUIRE(in.good(), "cannot open deck file: " << path);
  return from_stream(in);
}

void DeckSource::apply_override(const DeckOverride& ov) {
  check_override(ov);
  for (DeckSection& s : sections_) {
    if (s.header == ov.section) {
      s.values[ov.key] = ov.value;
      return;
    }
  }
  check_creatable(ov);
  sections_.push_back({ov.section, {{ov.key, ov.value}}, {}, 0});
}

void DeckSource::apply_override(const std::string& dotted_key,
                                const std::string& value) {
  apply_override(parse_override(dotted_key + "=" + value));
}

std::vector<std::string> DeckSource::campaign_lines() const {
  std::vector<std::string> lines;
  for (const DeckSection& s : sections_) {
    if (s.header != "campaign") continue;
    lines.insert(lines.end(), s.raw_lines.begin(), s.raw_lines.end());
  }
  return lines;
}

std::string DeckSource::canonical_text() const {
  std::string out;
  for (const DeckSection& s : sections_) {
    if (s.header == "campaign") continue;
    out += "[" + s.header + "]\n";
    for (const auto& [key, value] : s.values)  // std::map: sorted by key
      out += key + " = " + value + "\n";
  }
  return out;
}

Deck DeckSource::build() const {
  Deck deck;
  bool have_grid = false;
  for (const DeckSection& s : sections_) {
    const std::string kind = header_word(s.header, 0);
    // [campaign] holds batch-orchestration axes (campaign/spec.hpp), not
    // part of a single simulation's configuration.
    if (kind == "campaign") continue;
    build_section(s, deck);
    have_grid |= kind == "grid";
  }
  MV_REQUIRE(have_grid, "deck has no [grid] section");
  MV_REQUIRE(!deck.species.empty(), "deck has no [species ...] sections");
  return deck;
}

Deck DeckSource::build_with(const std::vector<DeckOverride>& overrides,
                            const Deck& built) const {
  // The sections the overrides touch, as edited copies, by index in
  // sections_; a created singleton takes the next index past the end,
  // where apply_override appends it.
  std::vector<std::pair<std::size_t, DeckSection>> edits;
  std::size_t created = 0;
  for (const DeckOverride& ov : overrides) {
    check_override(ov);
    auto e = std::find_if(edits.begin(), edits.end(), [&](const auto& x) {
      return x.second.header == ov.section;
    });
    if (e == edits.end()) {
      const auto at = std::size_t(
          std::find_if(sections_.begin(), sections_.end(),
                       [&](const DeckSection& x) {
                         return x.header == ov.section;
                       }) -
          sections_.begin());
      if (at < sections_.size()) {
        edits.emplace_back(at, sections_[at]);
      } else {
        check_creatable(ov);
        edits.emplace_back(sections_.size() + created++,
                           DeckSection{ov.section, {}, {}, 0});
      }
      e = edits.end() - 1;
    }
    e->second.values[ov.key] = ov.value;
  }
  // A section fills its slot of the Deck alone unless its header repeats:
  // two grid, laser or control sections (the last one wins) or two species
  // or collision sections of one name. Then build the edited copy in full.
  const auto slot = [](const std::string& header) {
    std::string kind = header_word(header, 0);
    return kind == "grid" || kind == "laser" || kind == "control" ? kind
                                                                  : header;
  };
  for (const auto& [at, edited] : edits) {
    const std::string mine = slot(edited.header);
    std::size_t same = 0;
    for (const DeckSection& s : sections_) same += slot(s.header) == mine;
    for (const auto& [other, e] : edits)
      same += other >= sections_.size() && slot(e.header) == mine;
    if (same > 1) {
      DeckSource copy = *this;
      for (const DeckOverride& ov : overrides) copy.apply_override(ov);
      return copy.build();
    }
  }
  // In file order, so the first bad value throws as build() would.
  std::sort(edits.begin(), edits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Deck deck = built;
  for (const auto& [at, s] : edits) {
    const std::string kind = header_word(s.header, 0);
    if (kind == "campaign") continue;
    if (kind != "species" && kind != "collision") {
      build_section(s, deck);
      continue;
    }
    // The n-th species (collision) section is the Deck's n-th entry.
    std::size_t n = 0;
    for (std::size_t i = 0; i < at; ++i)
      n += header_word(sections_[i].header, 0) == kind;
    Deck one;
    build_section(s, one);
    if (kind == "species") {
      deck.species[n] = std::move(one.species.back());
    } else {
      deck.collisions[n] = std::move(one.collisions.back());
    }
  }
  return deck;
}

Deck parse_deck(std::istream& in) { return DeckSource::from_stream(in).build(); }

Deck load_deck_file(const std::string& path) {
  return DeckSource::from_file(path).build();
}

Deck load_deck_file(const std::string& path,
                    const std::vector<DeckOverride>& overrides) {
  DeckSource src = DeckSource::from_file(path);
  for (const DeckOverride& ov : overrides) src.apply_override(ov);
  return src.build();
}

}  // namespace minivpic::sim
