// Ghost-cell operations: refresh (copy neighbor interior planes into my
// ghost layer, for E/B before interpolation and curl stencils) and source
// reduction (fold ghost-deposited J/rho back into the owning interior,
// after particle deposition).
//
// Axes are processed sequentially (x, then y, then z) with full padded
// planes, which makes edge- and corner-ghost values consistent without any
// dedicated diagonal exchange — the standard halo trick.
//
// Every plane is moved as contiguous runs of the x-fastest voxel layout, by
// one plane walk: a z-plane is one run of (nx+2)(ny+2) floats, a y-plane one
// run of nx+2 floats per k, an x-plane single elements. The same walk
// packs and unpacks messages, runs the single-rank periodic wrap (plane to
// plane within one array, copied for refresh and added for reduction) and
// zeroes the six source ghost planes.
//
// Works in two modes sharing the walk:
//  * single-rank / periodic-local: plane-to-plane copies inside this rank's
//    arrays, no message buffer;
//  * multi-rank: vmpi sends/recvs of packed planes with the neighbor ranks
//    of the LocalGrid.
#pragma once

#include <initializer_list>
#include <vector>

#include "grid/fields.hpp"
#include "vmpi/comm.hpp"

namespace minivpic::grid {

/// Field components addressable by the halo machinery.
enum class Component {
  kEx, kEy, kEz,
  kCbx, kCby, kCbz,
  kJfx, kJfy, kJfz,
  kRhof,
};

/// All electromagnetic components (the usual refresh set).
std::vector<Component> em_components();

/// All source components (the reduce set).
std::vector<Component> source_components();

class Halo {
 public:
  /// `comm` may be null only when the grid spans a single rank.
  Halo(const LocalGrid& grid, vmpi::Comm* comm);

  /// Fills ghost planes (index 0 and n+1) of the listed components from the
  /// adjacent interiors. Ghosts on global non-periodic faces are left
  /// untouched (boundary ops own them).
  void refresh(FieldArray& f, const std::vector<Component>& comps);

  /// Folds ghost-deposited source contributions (high-side ghost plane
  /// n+1, the only side deposition reaches) into the owning neighbor's first
  /// interior plane, then zeroes the six source ghost planes.
  void reduce_sources(FieldArray& f);

 private:
  void exchange_axis_refresh(FieldArray& f, const std::vector<Component>& comps,
                             int axis);
  void exchange_axis_reduce(FieldArray& f, const std::vector<Component>& comps,
                            int axis);

  void zero_source_ghosts(FieldArray& f) const;

  const LocalGrid* grid_;
  vmpi::Comm* comm_;
  std::vector<real> sendbuf_lo_, sendbuf_hi_, recvbuf_;
};

/// Raw pointer to a component's flat array (shared by halo and checkpoint).
real* component_data(FieldArray& f, Component c);
const real* component_data(const FieldArray& f, Component c);

}  // namespace minivpic::grid
