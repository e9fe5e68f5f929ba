// Accuracy metrics of Section 6.1: precision and recall of the *newly
// retrieved* skyline tuples, SKY_A(R) − SKY_AK(R) — the part of the answer
// the crowd is responsible for (the AK skyline is trivially correct).
#pragma once

#include <vector>

#include "data/dataset.h"

namespace crowdsky {

/// Precision/recall of a crowdsourced skyline against the ground truth.
struct AccuracyMetrics {
  double precision = 1.0;
  double recall = 1.0;
  double f1 = 1.0;
  int truth_new = 0;      ///< |SKY_A − SKY_AK| in the ground truth
  int retrieved_new = 0;  ///< newly retrieved tuples in the result
  int correct_new = 0;    ///< their intersection
};

/// Evaluates `result_skyline` (ascending ids) against the ground-truth
/// skyline computed from the dataset's hidden crowd values. Conventions:
/// empty retrieved set gives precision 1; empty truth set gives recall 1.
/// Computes SKY_AK(R) itself and delegates to the form below.
AccuracyMetrics EvaluateNewSkylineAccuracy(
    const Dataset& dataset, const std::vector<int>& result_skyline);

/// Same, with SKY_AK(R) (ascending ids) supplied by a caller that already
/// holds it — e.g. DominanceStructure::known_skyline().
AccuracyMetrics EvaluateNewSkylineAccuracy(
    const Dataset& dataset, const std::vector<int>& result_skyline,
    const std::vector<int>& known_skyline);

}  // namespace crowdsky
