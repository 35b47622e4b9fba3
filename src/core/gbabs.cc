#include "core/gbabs.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace gbx {

namespace {

/// Member of `ball` with the extreme coordinate along dimension `dim`.
/// `want_max` selects the largest coordinate, otherwise the smallest.
int ExtremeMember(const GranularBall& ball, const Matrix& x, int dim,
                  bool want_max) {
  GBX_CHECK_GT(ball.size(), 0);
  int best = ball.members[0];
  double best_v = x.At(best, dim);
  for (int idx : ball.members) {
    const double v = x.At(idx, dim);
    if (want_max ? (v > best_v) : (v < best_v)) {
      best = idx;
      best_v = v;
    }
  }
  return best;
}

}  // namespace

std::vector<int> BorderlineScanDimensions(const GranularBallSet& balls,
                                          int max_scan_dimensions) {
  const int p = balls.scaled_features().cols();
  std::vector<int> dims(p);
  for (int j = 0; j < p; ++j) dims[j] = j;
  if (max_scan_dimensions <= 0 || max_scan_dimensions >= p ||
      balls.empty()) {
    return dims;
  }
  // Variance of ball centers per dimension: high-variance dimensions are
  // where class structure (and therefore boundaries) spreads out.
  const int m = balls.size();
  std::vector<double> variance(p, 0.0);
  std::vector<double> mean(p, 0.0);
  for (int i = 0; i < m; ++i) {
    const auto& center = balls.ball(i).center;
    for (int j = 0; j < p; ++j) mean[j] += center[j];
  }
  for (int j = 0; j < p; ++j) mean[j] /= m;
  for (int i = 0; i < m; ++i) {
    const auto& center = balls.ball(i).center;
    for (int j = 0; j < p; ++j) {
      const double d = center[j] - mean[j];
      variance[j] += d * d;
    }
  }
  std::stable_sort(dims.begin(), dims.end(), [&](int a, int b) {
    return variance[a] > variance[b];
  });
  dims.resize(max_scan_dimensions);
  std::sort(dims.begin(), dims.end());
  return dims;
}

std::vector<int> SampleBorderlineIndices(
    const GranularBallSet& balls, std::vector<int>* borderline_ball_ids,
    int max_scan_dimensions) {
  const int m = balls.size();
  const Matrix& x = balls.scaled_features();
  std::vector<char> sampled(x.rows(), 0);
  std::vector<char> borderline(m, 0);

  // (center[dim], ball id) keys: the pair order is value, then id, so the
  // sort reads no ball while comparing and is deterministic on ties.
  // -0.0 and 0.0 compare equal and fall through to the id.
  std::vector<std::pair<double, int>> keys(m);
  const std::vector<int> dims =
      BorderlineScanDimensions(balls, max_scan_dimensions);
  for (int dim : dims) {
    // Step 1: sort centers along this dimension.
    for (int i = 0; i < m; ++i) keys[i] = {balls.ball(i).center[dim], i};
    std::sort(keys.begin(), keys.end());
    // Step 2: adjacent heterogeneous centers flag both balls as borderline
    // and contribute the two members facing the boundary.
    for (int i = 0; i + 1 < m; ++i) {
      const int left = keys[i].second;
      const int right = keys[i + 1].second;
      if (balls.ball(left).label == balls.ball(right).label) continue;
      borderline[left] = 1;
      borderline[right] = 1;
      sampled[ExtremeMember(balls.ball(left), x, dim, /*want_max=*/true)] = 1;
      sampled[ExtremeMember(balls.ball(right), x, dim, /*want_max=*/false)] =
          1;
    }
  }

  if (borderline_ball_ids != nullptr) {
    borderline_ball_ids->clear();
    for (int b = 0; b < m; ++b) {
      if (borderline[b]) borderline_ball_ids->push_back(b);
    }
  }
  std::vector<int> out;
  for (int i = 0; i < x.rows(); ++i) {
    if (sampled[i]) out.push_back(i);
  }
  return out;
}

GbabsResult RunGbabs(const Dataset& dataset, const GbabsConfig& config) {
  GbabsResult result;
  result.gbg = GenerateRdGbg(dataset, config.gbg);
  result.sampled_indices =
      SampleBorderlineIndices(result.gbg.balls, &result.borderline_ball_ids,
                              config.max_scan_dimensions);
  // Degenerate single-class datasets have no boundary: keep the centers so
  // the sampled set is non-empty and representative.
  if (result.sampled_indices.empty()) {
    for (const GranularBall& ball : result.gbg.balls.balls()) {
      if (ball.center_index >= 0) {
        result.sampled_indices.push_back(ball.center_index);
      }
    }
    std::sort(result.sampled_indices.begin(), result.sampled_indices.end());
  }
  result.sampled = dataset.Subset(result.sampled_indices);
  result.sampling_ratio =
      dataset.size() > 0
          ? static_cast<double>(result.sampled_indices.size()) / dataset.size()
          : 0.0;
  return result;
}

Dataset GbabsSample(const Dataset& dataset, const GbabsConfig& config) {
  return RunGbabs(dataset, config).sampled;
}

}  // namespace gbx
