#include "algo/metrics.h"

#include <algorithm>

#include "skyline/algorithms.h"
#include "skyline/dominance_structure.h"

namespace crowdsky {

AccuracyMetrics EvaluateNewSkylineAccuracy(
    const Dataset& dataset, const std::vector<int>& result_skyline) {
  return EvaluateNewSkylineAccuracy(
      dataset, result_skyline,
      ComputeSkylineSFS(PreferenceMatrix::FromKnown(dataset)));
}

AccuracyMetrics EvaluateNewSkylineAccuracy(
    const Dataset& dataset, const std::vector<int>& result_skyline,
    const std::vector<int>& known_sky) {
  const std::vector<int> truth = ComputeGroundTruthSkyline(dataset);

  auto subtract = [](const std::vector<int>& a, const std::vector<int>& b) {
    std::vector<int> out;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
    return out;
  };
  const std::vector<int> truth_new = subtract(truth, known_sky);
  std::vector<int> retrieved = result_skyline;
  std::sort(retrieved.begin(), retrieved.end());
  const std::vector<int> retrieved_new = subtract(retrieved, known_sky);

  std::vector<int> correct;
  std::set_intersection(truth_new.begin(), truth_new.end(),
                        retrieved_new.begin(), retrieved_new.end(),
                        std::back_inserter(correct));

  AccuracyMetrics m;
  m.truth_new = static_cast<int>(truth_new.size());
  m.retrieved_new = static_cast<int>(retrieved_new.size());
  m.correct_new = static_cast<int>(correct.size());
  m.precision = retrieved_new.empty()
                    ? 1.0
                    : static_cast<double>(m.correct_new) /
                          static_cast<double>(m.retrieved_new);
  m.recall = truth_new.empty() ? 1.0
                               : static_cast<double>(m.correct_new) /
                                     static_cast<double>(m.truth_new);
  m.f1 = (m.precision + m.recall) > 0.0
             ? 2.0 * m.precision * m.recall / (m.precision + m.recall)
             : 0.0;
  return m;
}

}  // namespace crowdsky
