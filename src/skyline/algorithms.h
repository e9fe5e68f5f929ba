// Machine-only skyline algorithms over complete data (Definition 3).
//
// Two classics are provided: block-nested-loop (BNL, Börzsönyi et al.) and
// sort-filter-skyline (SFS, Chomicki et al.). They are used (a) to compute
// SKY_AK(R), the complete-skyline seed of every crowd algorithm, (b) to
// compute ground-truth skylines for accuracy evaluation, and (c) as
// cross-checking references in the property tests.
#pragma once

#include <vector>

#include "skyline/dominance.h"
#include "skyline/dominance_kernels.h"

namespace crowdsky {

/// Block-nested-loop skyline. Returns skyline ids in increasing order.
/// Uses the process-selected dominance-kernel backend (CROWDSKY_KERNEL).
std::vector<int> ComputeSkylineBNL(const PreferenceMatrix& m);

/// Sort-filter-skyline. Returns skyline ids in increasing order.
/// Uses the process-selected dominance-kernel backend (CROWDSKY_KERNEL).
std::vector<int> ComputeSkylineSFS(const PreferenceMatrix& m);

/// Backend-pinned variants — the hooks the differential tests and the
/// hot-path benchmarks use to compare backends within one process (the
/// env-selected backend is cached after first use). The legacy backend
/// runs the classic serial pass at every thread count: it is the oracle
/// the kernel paths are checked against.
std::vector<int> ComputeSkylineBNL(const PreferenceMatrix& m,
                                   KernelBackend backend);
std::vector<int> ComputeSkylineSFS(const PreferenceMatrix& m,
                                   KernelBackend backend);

/// Default machine skyline (SFS).
inline std::vector<int> ComputeSkyline(const PreferenceMatrix& m) {
  return ComputeSkylineSFS(m);
}

/// Ground-truth skyline of a dataset over all attributes (known + hidden
/// crowd values). Used only for evaluation.
std::vector<int> ComputeGroundTruthSkyline(const Dataset& dataset);

}  // namespace crowdsky
