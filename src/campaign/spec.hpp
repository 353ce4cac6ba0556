// CampaignSpec: a base deck plus parameter axes, expanded into a fleet of
// jobs with stable content-hashed ids — the paper's parameter study
// (reflectivity vs laser intensity) as a first-class object instead of a
// hand-rolled loop.
//
// Deck-file form (see docs/CAMPAIGNS.md for the full grammar): a
// `[campaign]` section whose dotted keys are sweep axes and whose plain
// keys are batch controls, e.g.
//
//   [campaign]
//   laser.a0 = 0.05, 0.10, 0.15, 0.20   # axis: comma list of overrides
//   grid.nx = 240, 480                  # second axis -> cartesian product
//   steps = 2000                        # per-job step count
//   probe_plane = 16                    # reflectivity probe x-plane
//   warmup = 40                         # probe warmup time (1/omega_pe)
//
// Each axis is an explicit list of `section.key` override values; multiple
// axes expand as their cartesian product (first axis slowest). Every job
// carries its override list and an id hashed from the base deck's canonical
// text plus the sorted overrides and step count — ids are stable across
// reruns, axis reordering, and unrelated campaign edits, which is what lets
// a resumed campaign skip jobs its ResultStore already holds.
//
// Programmatic form: with_factory() swaps the deck text for a callback
// producing a Deck from a job's overrides (canned decks like sim::lpi_deck
// carry density-profile lambdas no text deck can express); the caller
// supplies the fingerprint string the ids hash instead.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/deck_io.hpp"

namespace minivpic::campaign {

/// One sweep axis: every value of `key` ("section.key" dotted form) to run.
struct Axis {
  std::string key;
  std::vector<std::string> values;
};

/// One expanded unit of work.
struct Job {
  std::string id;     ///< 16 hex digits, content-hashed (stable)
  std::string label;  ///< human fragment, e.g. "laser.a0=0.10,grid.nx=480"
  std::vector<sim::DeckOverride> overrides;
  int steps = 0;
  int probe_plane = -1;  ///< reflectivity probe x-plane; < 0 = no probe
  double warmup = 0;     ///< probe warmup time
  /// Per-job base deck text (service submissions that ship their own deck);
  /// empty = the owning spec's base deck. Hashed into the id through the
  /// fingerprint argument of job_id().
  std::string deck_text;
};

/// FNV-1a 64-bit over a string: the job-id content hash.
std::uint64_t fnv1a64(const std::string& s);

/// The canonical 16-hex job id: FNV-1a over the base-deck fingerprint
/// (DeckSource::canonical_text or a factory label), the step count, and the
/// sorted override specs. Single source of truth shared by CampaignSpec::
/// expand() and the service front door, so a job submitted over the wire
/// hashes identically to the same point of a run_campaign sweep.
std::string job_id(const std::string& fingerprint,
                   const std::vector<sim::DeckOverride>& overrides, int steps);

class CampaignSpec {
 public:
  CampaignSpec() = default;

  /// Parses the [campaign] section of a deck file/text; the remaining
  /// sections become the base deck. Throws when the deck has no [campaign]
  /// section or the section has an unknown control key.
  static CampaignSpec from_deck_file(const std::string& path);
  static CampaignSpec from_deck_text(const std::string& text);

  /// Base deck without a [campaign] section (axes added programmatically).
  static CampaignSpec from_deck_source(sim::DeckSource base);

  /// Programmatic base deck: `factory` maps a job's overrides to a Deck.
  /// `fingerprint` stands in for the canonical deck text in the job ids —
  /// callers must change it when the factory's baseline changes.
  static CampaignSpec with_factory(
      std::string fingerprint,
      std::function<sim::Deck(const std::vector<sim::DeckOverride>&)> factory);

  // -- axes and controls ---------------------------------------------------
  void add_axis(const std::string& dotted_key, std::vector<std::string> values);
  void set_steps(int steps) { steps_ = steps; }
  void set_probe_plane(int plane) { probe_plane_ = plane; }
  void set_warmup(double t) { warmup_ = t; }

  int steps() const { return steps_; }
  int probe_plane() const { return probe_plane_; }
  double warmup() const { return warmup_; }
  const std::vector<Axis>& axes() const { return axes_; }
  /// The job-id content-hash base (canonical base-deck text or the factory
  /// label) — what the service hashes for submissions against this spec.
  const std::string& fingerprint() const { return fingerprint_; }

  /// Expands the cartesian product of the axes into jobs (one job with no
  /// overrides when there are no axes) and validates every job's deck —
  /// an unknown `section.key` throws here, before any work starts.
  std::vector<Job> expand() const;

  /// Builds the (validated) deck of one job.
  sim::Deck make_deck(const Job& job) const;

 private:
  sim::DeckSource base_;
  std::optional<sim::Deck> built_;  ///< base_.build(), when it builds alone
  std::function<sim::Deck(const std::vector<sim::DeckOverride>&)> factory_;
  std::string fingerprint_;  ///< canonical base text or factory label
  std::vector<Axis> axes_;
  int steps_ = 100;
  int probe_plane_ = -1;
  double warmup_ = 0;
};

}  // namespace minivpic::campaign
