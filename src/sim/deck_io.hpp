// Text deck files: run parameter studies without recompiling, VPIC-deck
// style. The format is INI-like sections of `key = value` lines:
//
//   # LPI slab, comments start with '#'
//   [grid]
//   nx = 480          ny = 1            nz = 1
//   dx = 0.2          cfl = 0.99
//   boundary_x = absorbing      # periodic | pec | absorbing
//   boundary_y = periodic
//   boundary_z = periodic
//   particle_bc_x = absorb      # periodic | reflect | absorb | reflux
//
//   [species electron]
//   q = -1            m = 1
//   ppc = 128         uth = 0.0626
//   drift_x = 0       mobile = true
//   slab_x0 = 6.0     slab_x1 = 90.0    # optional density slab along x
//
//   [laser]
//   omega0 = 3.162    a0 = 0.1          ramp = 10     plane = 2
//
//   [control]
//   sort_every = 20   clean_period = 50
//
//   [collision electron electron]
//   nu_scale = 1e-4   period = 10
//
// One `key = value` pair per whitespace-separated token group; multiple
// pairs may share a line. Unknown keys are errors (catch typos early).
//
// A `[campaign]` section (parameter-sweep axes and batch controls, see
// campaign/spec.hpp and docs/CAMPAIGNS.md) may also be present; it is
// carried verbatim by DeckSource and ignored when building a single Deck,
// so `run_deck` can execute one point of a campaign deck unchanged.
//
// Overrides: any `section.key` of the deck grammar can be overridden after
// parsing and before building — the shared mechanism behind `run_deck
// --set section.key=value` and the campaign expander. The section part is
// the full header ("grid", "control", "species electron"); the key part is
// the final dot-separated component. Unknown keys are rejected when the
// Deck is built, with the same diagnostics as a key typed in the file.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/deck.hpp"

namespace minivpic::sim {

/// One parsed "section.key = value" deck override.
struct DeckOverride {
  std::string section;  ///< full section header, e.g. "grid", "species electron"
  std::string key;
  std::string value;

  /// Canonical "section.key=value" form (the hash/serialization shape).
  std::string spec() const { return section + "." + key + "=" + value; }
};

/// Parses "section.key=value" (the --set argument shape). The section is
/// everything before the *last* dot of the key part, so multi-word headers
/// work: "species electron.uth=0.07". Throws on a missing '=' or dot.
DeckOverride parse_override(const std::string& spec);

/// One tokenized deck section: ordered key/value pairs plus — for the
/// [campaign] section only, whose values are comma lists the generic
/// tokenizer must not split — the raw comment-stripped lines.
struct DeckSection {
  std::string header;  ///< e.g. "grid", "species electron", "campaign"
  std::map<std::string, std::string> values;
  std::vector<std::string> raw_lines;  ///< campaign sections only
  int line = 0;
};

/// A tokenized deck held between parse and build, so overrides can be
/// applied with full deck-grammar validation. This is the substrate of both
/// `run_deck --set` and the campaign job expander: parse and build once,
/// then per job rebuild only what its overrides touch (build_with).
class DeckSource {
 public:
  DeckSource() = default;

  /// Parses deck text; throws minivpic::Error with a line number on
  /// malformed input. Does not validate keys (build() does).
  static DeckSource from_stream(std::istream& in);
  static DeckSource from_text(const std::string& text);
  static DeckSource from_file(const std::string& path);

  /// Sets `ov.key` in the section whose header is exactly `ov.section`.
  /// Singleton sections (grid, control, laser) are created when absent;
  /// species/collision sections must already exist (an override cannot
  /// invent a species). Key validity is checked by build().
  void apply_override(const DeckOverride& ov);

  /// Convenience: apply_override(parse_override(dotted_key + "=" + value)).
  void apply_override(const std::string& dotted_key, const std::string& value);

  /// Builds and fully validates the Deck (unknown keys/sections throw).
  /// The [campaign] section, if any, is skipped.
  Deck build() const;

  /// What a copy of this source with `overrides` applied (in order) would
  /// build, with the same validation and messages, given `built`, this
  /// source's own build(): only the sections the overrides touch are built
  /// again. When a touched section's header repeats (two grid, laser or
  /// control sections, or two species or collision sections of one name),
  /// it builds the copy in full instead.
  Deck build_with(const std::vector<DeckOverride>& overrides,
                  const Deck& built) const;

  /// The [campaign] section's raw lines (comment-stripped, trimmed);
  /// empty when the deck has none. Consumed by campaign::CampaignSpec.
  std::vector<std::string> campaign_lines() const;

  /// Deterministic serialization of every non-campaign section — sections
  /// in file order, keys sorted — used as the content-hash base for
  /// campaign job ids. Two decks with equal canonical text build equal
  /// Decks.
  std::string canonical_text() const;

  const std::vector<DeckSection>& sections() const { return sections_; }

 private:
  std::vector<DeckSection> sections_;
};

/// Parses a deck from a stream; throws minivpic::Error with a line number
/// on malformed input.
Deck parse_deck(std::istream& in);

/// Loads a deck file from disk, optionally applying overrides (in order)
/// before validation.
Deck load_deck_file(const std::string& path);
Deck load_deck_file(const std::string& path,
                    const std::vector<DeckOverride>& overrides);

}  // namespace minivpic::sim
