#include "sim/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "particles/collisions.hpp"
#include "util/error.hpp"

namespace minivpic::sim {

using telemetry::Phase;

namespace {

grid::LocalGrid make_local(const Deck& deck, vmpi::Comm* comm,
                           const vmpi::CartTopology* topo) {
  if (comm == nullptr) {
    MV_REQUIRE(topo == nullptr || topo->nranks() == 1,
               "multi-rank topology without a communicator");
    return grid::LocalGrid(deck.grid);
  }
  MV_REQUIRE(topo != nullptr, "multi-rank simulation needs a topology");
  MV_REQUIRE(topo->nranks() == comm->size(),
             "topology rank count " << topo->nranks()
                                    << " != communicator size "
                                    << comm->size());
  return grid::LocalGrid(deck.grid, *topo, comm->rank());
}

/// The rho deposit's scale: the heaviest full-weight contribution over the
/// deck's species, from the deck alone, so every path that builds this
/// simulation's state (initialize, restore, rollback, resume) shares Q.
double full_weight_rho(const Deck& deck) {
  double c = 0;
  for (const SpeciesConfig& sc : deck.species)
    c = std::max(c, particles::full_weight_rho(sc.q, sc.load));
  return c;
}

}  // namespace

Simulation::Simulation(const Deck& deck, vmpi::Comm* comm,
                       const vmpi::CartTopology* topo)
    : deck_(deck),
      comm_(comm),
      grid_(make_local(deck, comm, topo)),
      fields_(grid_),
      halo_(grid_, comm),
      solver_(grid_, &halo_),
      cleaner_(grid_, &halo_),
      pipeline_(Pipeline::resolve(deck.pipelines)),
      interp_(grid_),
      // Multi-rank runs get one extra accumulator block — the migration
      // block — so the (possibly asynchronous) exchange never deposits into
      // a pipeline's block. Single-rank runs keep the historical layout
      // (their exchange is a no-op), which keeps reduce() bit-identical.
      acc_(grid_, pipeline_.size() +
                      (comm != nullptr && comm->size() > 1 ? 1 : 0)),
      pusher_(grid_, deck.particle_bc),
      rho_(grid_, full_weight_rho(deck)) {
  // Resolves kAuto to the widest kernel this host supports and validates
  // explicit choices (an explicitly requested unavailable kernel throws
  // here, before any particles are loaded).
  pusher_.set_kernel(deck.kernel);
  // Overlap resolution (docs/OVERLAP.md): kAuto follows the skin — overlap
  // pays off exactly when there is a remote neighbor to exchange with, so a
  // single-rank grid runs barriered (nothing to hide).
  overlap_ = deck.overlap != Deck::Overlap::kOff && comm != nullptr &&
             comm->size() > 1;
  if (overlap_) comm_worker_ = std::make_unique<util::Worker>();
  overlap_stats_.enabled = overlap_;
  MV_REQUIRE(!deck.species.empty(), "deck has no species");
  MV_REQUIRE(deck.sort_period >= 0 && deck.clean_period >= 0 &&
                 deck.clean_passes >= 1,
             "invalid cadence settings");
  for (const SpeciesConfig& sc : deck.species) {
    species_.push_back(
        std::make_unique<particles::Species>(sc.name, sc.q, sc.m));
    mobile_.push_back(sc.mobile);
  }
  if (deck.laser) {
    antenna_ = std::make_unique<field::LaserAntenna>(grid_, *deck.laser);
  }
  for (const CollisionSpec& cs : deck.collisions) {
    MV_REQUIRE(cs.nu_scale >= 0 && cs.period >= 1,
               "invalid collision spec for " << cs.species_a);
    ResolvedCollision rc;
    rc.nu_scale = cs.nu_scale;
    rc.period = cs.period;
    bool found_a = false, found_b = false;
    for (std::size_t s = 0; s < species_.size(); ++s) {
      if (species_[s]->name() == cs.species_a) {
        rc.a = s;
        found_a = true;
      }
      if (species_[s]->name() == cs.species_b) {
        rc.b = s;
        found_b = true;
      }
    }
    MV_REQUIRE(found_a && found_b, "collision spec names unknown species '"
                                       << cs.species_a << "'/'"
                                       << cs.species_b << "'");
    collisions_.push_back(rc);
  }
}

particles::Species* Simulation::find_species(const std::string& name) {
  for (auto& sp : species_) {
    if (sp->name() == name) return sp.get();
  }
  return nullptr;
}

void Simulation::initialize() {
  MV_REQUIRE(!initialized_, "initialize() called twice");
  for (std::size_t s = 0; s < species_.size(); ++s) {
    particles::load_uniform(*species_[s], grid_, deck_.species[s].load);
    rho_.check_weights(*species_[s]);
  }
  solver_.refresh_all(fields_);
  if (deck_.init_settle_passes > 0) {
    // Relax E toward the sampled rho (cheap Poisson substitute): removes
    // the E = 0 vs noisy-rho startup transient.
    deposit_rho();
    cleaner_.clean_e(fields_, deck_.init_settle_passes);
  }
  solver_.boundary().capture(fields_);
  // Leapfrog setup: momenta loaded at t=0 are pulled back to t=-dt/2 using
  // the initial fields (zero here unless a restart seeded them).
  interp_.load(fields_);
  for (std::size_t s = 0; s < species_.size(); ++s) {
    if (mobile_[s]) particles::uncenter_p(*species_[s], interp_, grid_);
  }
  initialized_ = true;
}

void Simulation::step() {
  MV_REQUIRE(initialized_, "initialize() must be called before step()");

  // Every phase below runs under a telemetry::PhaseProbe, which times it
  // into timings_ and mirrors it to the trace and the flight recorder (one
  // pointer test per detached sink); the recorder also gets a step marker.
  if (recorder_ != nullptr) {
    recorder_->set_step(step_);
    recorder_->record(telemetry::FdrKind::kStep, 0, -1,
                      static_cast<std::uint64_t>(step_));
  }
  const auto step_probe = probe(Phase::kStep);

  {
    const auto lap = probe(Phase::kInterpolate);
    interp_.load(fields_);
  }

  {
    // Source setup is sources-phase work too: its second half (accumulator
    // unload + halo fold) runs after the push below. The last step's fold
    // left only block 0's interior nonzero, so that is all clear() zeroes;
    // after a step that threw before its fold, it zeroes every block.
    const auto lap = probe(Phase::kSources);
    acc_.clear();
    fields_.clear_sources();
    if (antenna_) antenna_->deposit(fields_, time_);
  }

  const bool clean_now =
      deck_.clean_period > 0 && (step_ + 1) % deck_.clean_period == 0;
  const bool sort_now =
      deck_.sort_period > 0 && (step_ + 1) % deck_.sort_period == 0;

  // The migration exchange deposits into the dedicated last block on
  // multi-rank grids (see acc_'s constructor comment), block 0 otherwise.
  particles::CellAccum* const migrate_block =
      acc_.blocks() > pipeline_.size() ? acc_.block(pipeline_.size())
                                       : acc_.data();

  for (std::size_t s = 0; s < species_.size(); ++s) {
    if (!mobile_[s]) continue;
    particles::Species& sp = *species_[s];
    const double ruth = deck_.species[s].reflux_uth >= 0
                            ? deck_.species[s].reflux_uth
                            : deck_.species[s].load.uth;
    pusher_.set_reflux_uth(ruth);

    // Two-pass advance (docs/OVERLAP.md): pass S (skin cells) runs first in
    // BOTH modes, so arithmetic order, RNG draws, and emigrant order are
    // mode-independent; the overlapped loop merely runs the exchange on the
    // comm worker while pass I advances the interior. Removals are deferred
    // until the exchange has drained, then immigrants are appended —
    // exactly the array layout the barriered schedule produces.
    particles::Pusher::Pass skin, interior;
    particles::MigrateStats mig;
    std::vector<particles::Particle> immigrants;
    double comm_dt = 0;  // async exchange wall time (worker writes, we
                         // read after the join)
    {
      const auto push_probe = probe(Phase::kPush);
      {
        const auto lap = probe(Phase::kPushSkin);
        skin = pusher_.advance_skin(sp, interp_, acc_, &pipeline_);
        if (overlap_) overlap_stats_.skin_seconds += lap.seconds();
      }
      if (overlap_) {
        comm_worker_->submit([&, this] {
          // TraceWriter and Recorder are thread-safe; the span lands on the
          // worker's own trace row, bracketing push.interior below.
          const auto lap = probe(Phase::kMigrateAsync);
          mig = particles::exchange_particles(std::move(skin.res.emigrants),
                                              sp, pusher_, migrate_block,
                                              grid_, comm_, &immigrants);
          comm_dt = lap.seconds();
        });
      }
      try {
        const auto lap = probe(Phase::kPushInterior);
        interior = pusher_.advance_interior(sp, interp_, acc_, &pipeline_);
        if (overlap_) overlap_stats_.interior_seconds += lap.seconds();
      } catch (...) {
        // Join the comm worker before unwinding (the interior failure is
        // primary; a concurrent exchange error is dropped) so it never
        // outlives the state it touches.
        if (overlap_) {
          try {
            comm_worker_->wait();
          } catch (...) {
          }
        }
        throw;
      }
    }
    stats_.pushed += skin.res.pushed + interior.res.pushed;
    stats_.crossings += skin.res.crossings + interior.res.crossings;
    stats_.absorbed += skin.res.absorbed + interior.res.absorbed;
    stats_.reflected += skin.res.reflected + interior.res.reflected;
    stats_.refluxed += skin.res.refluxed + interior.res.refluxed;
    const std::size_t lanes = std::max(skin.res.pipeline_seconds.size(),
                                       interior.res.pipeline_seconds.size());
    if (pipeline_busy_.size() < lanes) pipeline_busy_.resize(lanes, 0.0);
    for (std::size_t p = 0; p < skin.res.pipeline_seconds.size(); ++p)
      pipeline_busy_[p] += skin.res.pipeline_seconds[p];
    for (std::size_t p = 0; p < interior.res.pipeline_seconds.size(); ++p)
      pipeline_busy_[p] += interior.res.pipeline_seconds[p];
    {
      // In overlapped mode this phase records only the *exposed* join wait,
      // so phase totals keep summing to step wall time; the hidden comm
      // lives in overlap_stats().
      const auto lap = probe(Phase::kMigrate);
      if (overlap_) {
        const Timer t;
        comm_worker_->wait();  // rethrows a CommError from the exchange
        const double exposed = t.seconds();
        overlap_stats_.comm_seconds += comm_dt;
        overlap_stats_.exposed_seconds += exposed;
        overlap_stats_.hidden_seconds += std::max(0.0, comm_dt - exposed);
        ++overlap_stats_.overlapped_steps;
      } else {
        mig = particles::exchange_particles(std::move(skin.res.emigrants),
                                            sp, pusher_, migrate_block,
                                            grid_, comm_, &immigrants);
      }
      // Interior emigrants exist only past the CFL limit; both modes drain
      // them with the same follow-up exchange (one allreduce, normally 0
      // rounds).
      const particles::MigrateStats tail = particles::exchange_particles(
          std::move(interior.res.emigrants), sp, pusher_, migrate_block,
          grid_, comm_, &immigrants);

      // Deferred compaction: merge the two ascending dead lists, remove
      // descending, then append settled immigrants.
      std::vector<std::size_t> dead;
      dead.reserve(skin.dead.size() + interior.dead.size());
      std::merge(skin.dead.begin(), skin.dead.end(), interior.dead.begin(),
                 interior.dead.end(), std::back_inserter(dead));
      for (auto it = dead.rbegin(); it != dead.rend(); ++it) sp.remove(*it);
      for (const particles::Particle& p : immigrants) sp.add(p);

      stats_.migrated += mig.sent + tail.sent;
      stats_.immigrated += mig.received + tail.received;
      stats_.absorbed += mig.absorbed + tail.absorbed;
    }
  }

  bool collide_now = false;
  for (const auto& rc : collisions_) {
    if ((step_ + 1) % rc.period == 0) collide_now = true;
  }

  if (sort_now || collide_now) {
    // Periodic bin sort: restores the near-cell particle order the SIMD
    // gathers decay away from as migration shuffles the list
    // (docs/SORTING.md). The sort runs on the same pipeline pool as the
    // advance; collisions also require sorted lists.
    const auto lap = probe(Phase::kSort);
    for (std::size_t s = 0; s < species_.size(); ++s) {
      if (!mobile_[s]) continue;
      species_[s]->sort(grid_, &pipeline_);
      stats_.sorted += std::int64_t(species_[s]->size());
    }
  }

  if (collide_now) {
    const auto lap = probe(Phase::kCollide);
    for (const auto& rc : collisions_) {
      if ((step_ + 1) % rc.period != 0) continue;
      const double dt_coll = rc.period * grid_.dt();
      particles::CollisionStats cs;
      if (rc.a == rc.b) {
        // Immobile species are never sorted above; sort on demand.
        if (!mobile_[rc.a]) species_[rc.a]->sort(grid_, &pipeline_);
        cs = particles::collide_intraspecies(*species_[rc.a], grid_,
                                             rc.nu_scale, dt_coll,
                                             deck_.collision_seed, step_);
      } else {
        if (!mobile_[rc.a]) species_[rc.a]->sort(grid_, &pipeline_);
        if (!mobile_[rc.b]) species_[rc.b]->sort(grid_, &pipeline_);
        cs = particles::collide_interspecies(*species_[rc.a], *species_[rc.b],
                                             grid_, rc.nu_scale, dt_coll,
                                             deck_.collision_seed, step_);
      }
      stats_.collision_pairs += cs.pairs;
    }
  }

  {
    // Fold the per-pipeline accumulator blocks into block 0 on the pool,
    // over the interior cells only, zeroing blocks 1..B-1 as it goes (fixed
    // block order, so bit-identical to a serial fold; see
    // AccumulatorArray::reduce). Timed separately: this is the cost the
    // pipeline layer pays per step for its private blocks.
    const auto lap = probe(Phase::kReduce);
    acc_.reduce(&pipeline_);
  }

  {
    const auto lap = probe(Phase::kSources);
    acc_.unload(fields_);
    if (clean_now) add_rho();
    halo_.reduce_sources(fields_);
  }

  {
    const auto lap = probe(Phase::kField);
    solver_.advance_b(fields_, 0.5);
    solver_.advance_e(fields_);
    solver_.advance_b(fields_, 0.5);
  }

  if (clean_now) {
    const auto lap = probe(Phase::kClean);
    cleaner_.clean_e(fields_, deck_.clean_passes);
    cleaner_.clean_b(fields_, 1);
  }

  ++step_;
  time_ += grid_.dt();
}

void Simulation::run(int nsteps) {
  for (int s = 0; s < nsteps; ++s) step();
}

template <typename T>
T Simulation::reduce_sum(T v) const {
  if (comm_ == nullptr) return v;
  return comm_->allreduce_value(v, vmpi::Op::kSum);
}

EnergyReport Simulation::energies() const {
  EnergyReport rep;
  rep.field = field::field_energy(fields_);
  rep.field.ex = reduce_sum(rep.field.ex);
  rep.field.ey = reduce_sum(rep.field.ey);
  rep.field.ez = reduce_sum(rep.field.ez);
  rep.field.bx = reduce_sum(rep.field.bx);
  rep.field.by = reduce_sum(rep.field.by);
  rep.field.bz = reduce_sum(rep.field.bz);
  for (const auto& sp : species_) {
    rep.species_kinetic.push_back(reduce_sum(sp->kinetic_energy()));
    rep.kinetic_total += rep.species_kinetic.back();
  }
  rep.total = rep.field.total() + rep.kinetic_total;
  return rep;
}

std::int64_t Simulation::global_particle_count() const {
  std::int64_t n = 0;
  for (const auto& sp : species_) n += std::int64_t(sp->size());
  return reduce_sum(n);
}

void Simulation::add_rho() {
  std::vector<const particles::Species*> all;
  for (const auto& sp : species_) all.push_back(sp.get());
  rho_.deposit(all, fields_, &pipeline_);
}

void Simulation::deposit_rho() {
  auto rho = fields_.rhof_span();
  std::fill(rho.begin(), rho.end(), grid::real{0});
  add_rho();
  // Fold ghost deposits. reduce_sources also folds J ghosts, which are
  // empty outside the step, so this is safe mid-diagnostic.
  halo_.reduce_sources(fields_);
}

double Simulation::gauss_error() {
  deposit_rho();
  const double local = cleaner_.div_e_error_rms(fields_);
  if (comm_ == nullptr) return local;
  // Combine RMS across ranks (weighted by node counts, all equal enough).
  const double sum2 = reduce_sum(local * local * double(grid_.num_cells()));
  const double n = reduce_sum(double(grid_.num_cells()));
  return std::sqrt(sum2 / n);
}

}  // namespace minivpic::sim
