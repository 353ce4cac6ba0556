#include "campaign/spec.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace minivpic::campaign {

namespace {

std::string trim(const std::string& s) {
  const auto a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  const auto b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto comma = s.find(',', start);
    const auto end = comma == std::string::npos ? s.size() : comma;
    const std::string item = trim(s.substr(start, end - start));
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int control_int(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  MV_REQUIRE(end != nullptr && *end == '\0',
             "[campaign] " << key << ": expected an integer, got '" << value
                           << "'");
  return int(v);
}

double control_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  MV_REQUIRE(end != nullptr && *end == '\0',
             "[campaign] " << key << ": expected a number, got '" << value
                           << "'");
  return v;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= std::uint64_t(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string job_id(const std::string& fingerprint,
                   const std::vector<sim::DeckOverride>& overrides, int steps) {
  // Content hash: base deck fingerprint + step count + sorted overrides,
  // so ids survive axis/override reordering and unrelated edits but change
  // with anything that changes the physics of the job.
  std::vector<std::string> specs;
  specs.reserve(overrides.size());
  for (const sim::DeckOverride& ov : overrides) specs.push_back(ov.spec());
  std::sort(specs.begin(), specs.end());
  std::string blob = fingerprint + "|steps=" + std::to_string(steps);
  for (const std::string& s : specs) blob += "|" + s;
  std::string id(16, '0');
  std::uint64_t h = fnv1a64(blob);
  for (int d = 15; d >= 0; --d, h >>= 4)
    id[std::size_t(d)] = "0123456789abcdef"[h & 0xf];
  return id;
}

CampaignSpec CampaignSpec::from_deck_text(const std::string& text) {
  return from_deck_source(sim::DeckSource::from_text(text));
}

CampaignSpec CampaignSpec::from_deck_file(const std::string& path) {
  return from_deck_source(sim::DeckSource::from_file(path));
}

CampaignSpec CampaignSpec::from_deck_source(sim::DeckSource base) {
  CampaignSpec spec;
  spec.fingerprint_ = base.canonical_text();
  // One `key = value-list` pair per [campaign] line (values are comma
  // lists, so the multi-pair-per-line deck shorthand does not apply here).
  for (const std::string& line : base.campaign_lines()) {
    const auto eq = line.find('=');
    MV_REQUIRE(eq != std::string::npos && eq > 0,
               "[campaign] line '" << line << "': expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    MV_REQUIRE(!key.empty() && !value.empty(),
               "[campaign] line '" << line << "': expected key = value");
    if (key.find('.') != std::string::npos) {
      spec.add_axis(key, split_commas(value));
    } else if (key == "steps") {
      spec.steps_ = control_int(key, value);
      MV_REQUIRE(spec.steps_ >= 1, "[campaign] steps must be >= 1");
    } else if (key == "probe_plane") {
      spec.probe_plane_ = control_int(key, value);
    } else if (key == "warmup") {
      spec.warmup_ = control_double(key, value);
    } else {
      MV_REQUIRE(false, "[campaign]: unknown control key '"
                            << key
                            << "' (axes are dotted section.key names; "
                               "controls are steps, probe_plane, warmup)");
    }
  }
  // Built once, so a job rebuilds only the sections its overrides touch. A
  // base that does not build on its own leaves every job a full build.
  try {
    spec.built_ = base.build();
  } catch (const Error&) {
  }
  spec.base_ = std::move(base);
  return spec;
}

CampaignSpec CampaignSpec::with_factory(
    std::string fingerprint,
    std::function<sim::Deck(const std::vector<sim::DeckOverride>&)> factory) {
  MV_REQUIRE(factory != nullptr, "campaign factory must be callable");
  CampaignSpec spec;
  spec.fingerprint_ = std::move(fingerprint);
  spec.factory_ = std::move(factory);
  return spec;
}

void CampaignSpec::add_axis(const std::string& dotted_key,
                            std::vector<std::string> values) {
  MV_REQUIRE(!values.empty(),
             "campaign axis '" << dotted_key << "' needs at least one value");
  // Validate the dotted shape once here; parse_override also rejects
  // malformed keys but with a less helpful message.
  const auto dot = dotted_key.rfind('.');
  MV_REQUIRE(dot != std::string::npos && dot > 0 && dot + 1 < dotted_key.size(),
             "campaign axis '" << dotted_key
                               << "': expected a dotted section.key name");
  for (const Axis& a : axes_)
    MV_REQUIRE(a.key != dotted_key,
               "campaign axis '" << dotted_key << "' given twice");
  axes_.push_back({dotted_key, std::move(values)});
}

std::vector<Job> CampaignSpec::expand() const {
  std::size_t count = 1;
  for (const Axis& a : axes_) count *= a.values.size();
  std::vector<Job> jobs;
  jobs.reserve(count);
  // Cartesian product, first axis slowest (row-major over the axes).
  for (std::size_t flat = 0; flat < count; ++flat) {
    Job job;
    job.steps = steps_;
    job.probe_plane = probe_plane_;
    job.warmup = warmup_;
    std::size_t rem = flat;
    std::size_t stride = count;
    for (const Axis& a : axes_) {
      stride /= a.values.size();
      const std::size_t pick = rem / stride;
      rem %= stride;
      const std::string& value = a.values[pick];
      job.overrides.push_back(sim::parse_override(a.key + "=" + value));
      if (!job.label.empty()) job.label += ",";
      job.label += a.key + "=" + value;
    }
    job.id = job_id(fingerprint_, job.overrides, job.steps);
    jobs.push_back(std::move(job));
  }
  // Fail on typos before any compute: building a job's Deck is cheap (no
  // particles are loaded, and only the overridden sections are rebuilt), so
  // validate every job up front.
  for (const Job& job : jobs) (void)make_deck(job);
  return jobs;
}

sim::Deck CampaignSpec::make_deck(const Job& job) const {
  if (!job.deck_text.empty()) {
    // Service submissions may ship their own base deck; the spec then only
    // contributes execution defaults, not the physics.
    sim::DeckSource src = sim::DeckSource::from_text(job.deck_text);
    for (const sim::DeckOverride& ov : job.overrides) src.apply_override(ov);
    return src.build();
  }
  if (factory_) return factory_(job.overrides);
  if (built_) return base_.build_with(job.overrides, *built_);
  sim::DeckSource src = base_;
  for (const sim::DeckOverride& ov : job.overrides) src.apply_override(ov);
  return src.build();
}

}  // namespace minivpic::campaign
