#include "sampling/smote.h"

#include <algorithm>

#include "index/dynamic_kd_tree.h"

namespace gbx {

void AppendSyntheticSamples(const Dataset& train,
                            const std::vector<int>& seed_indices,
                            const std::vector<int>& neighbor_pool, int cls,
                            int count, int k_neighbors, Pcg32* rng,
                            Dataset* out) {
  GBX_CHECK(out != nullptr);
  GBX_CHECK(rng != nullptr);
  if (count <= 0 || seed_indices.empty() || neighbor_pool.empty()) return;
  const int p = train.num_features();

  Matrix pool = train.x().SelectRows(neighbor_pool);
  DynamicKdTree tree(&pool);

  std::vector<double> synthetic(p);
  for (int s = 0; s < count; ++s) {
    const int seed =
        seed_indices[rng->NextBounded(
            static_cast<std::uint32_t>(seed_indices.size()))];
    const double* x = train.row(seed);
    // k+1 since the seed itself may be in the pool at distance 0.
    std::vector<Neighbor> nns =
        tree.KNearest(x, std::min<int>(k_neighbors + 1,
                                       static_cast<int>(neighbor_pool.size())));
    // Drop the self-match if present.
    std::vector<int> candidates;
    for (const Neighbor& nb : nns) {
      if (neighbor_pool[nb.index] != seed) {
        candidates.push_back(neighbor_pool[nb.index]);
      }
      if (static_cast<int>(candidates.size()) == k_neighbors) break;
    }
    if (candidates.empty()) candidates.push_back(seed);  // lone sample
    const int nn = candidates[rng->NextBounded(
        static_cast<std::uint32_t>(candidates.size()))];
    const double* xn = train.row(nn);
    const double u = rng->NextDouble();
    for (int j = 0; j < p; ++j) synthetic[j] = x[j] + u * (xn[j] - x[j]);
    out->AppendSample(synthetic.data(), p, cls);
  }
}

SmoteSampler::SmoteSampler(int k_neighbors) : k_neighbors_(k_neighbors) {
  GBX_CHECK_GE(k_neighbors, 1);
}

Dataset SmoteSampler::Sample(const Dataset& train, Pcg32* rng) const {
  GBX_CHECK(rng != nullptr);
  Dataset out = train;
  const std::vector<int> counts = train.ClassCounts();
  const int majority = *std::max_element(counts.begin(), counts.end());
  for (int cls = 0; cls < train.num_classes(); ++cls) {
    if (counts[cls] == 0 || counts[cls] >= majority) continue;
    const std::vector<int> members = train.IndicesOfClass(cls);
    AppendSyntheticSamples(train, members, members, cls,
                           majority - counts[cls], k_neighbors_, rng, &out);
  }
  return out;
}

}  // namespace gbx
