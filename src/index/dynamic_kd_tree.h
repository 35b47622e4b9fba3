// KD-tree with cheap lazy deletions: Remove(i) tombstones a point in
// O(depth) (per-node live counters let queries prune dead subtrees), and
// the structure rebuilds itself over the survivors once more than half of
// the indexed points are tombstoned, so a full build-then-drain cycle —
// RD-GBG's granulation loop, which queries nearest neighbors from a
// *shrinking* undivided set — costs O(n log n) amortized instead of a
// fresh O(n) scan per candidate.
//
// Exact: property-tested against a live-filtered brute-force oracle
// (tests/index_dynamic_test.cc, tests/index_test.cc). Query families:
//
//  - KNearest / RadiusSearch (NeighborIndex): Euclidean distances. Like
//    BruteForceIndex, ranking/inclusion happen in
//    squared space ((dist2, index) order, d2 <= r2 inclusion) and the
//    sqrt is applied only to the results — bit-identical to what
//    BruteForceIndex produces over the live points.
//  - KNearestSquared: squared distances ordered by (dist2, index), the
//    exact total order RD-GBG's flat scan consumes. sqrt can merge
//    distinct squared distances into ties, so squared-space consumers get
//    squared-space results rather than a lossy round trip.
//  - KNearestSurface (weighted trees): GB-kNN's ball-surface score.
//
// Queries never mutate the tree and are safe to issue concurrently;
// Remove must be externally serialized against queries.
#ifndef GBX_INDEX_DYNAMIC_KD_TREE_H_
#define GBX_INDEX_DYNAMIC_KD_TREE_H_

#include <vector>

#include "index/neighbor_index.h"

namespace gbx {

class DynamicKdTree : public NeighborIndex {
 public:
  /// `points` must outlive the tree and must not be mutated while the
  /// tree is live. All rows start alive. `leaf_size` is the maximum
  /// number of points in a leaf bucket.
  explicit DynamicKdTree(const Matrix* points, int leaf_size = 16);

  /// As above, plus a non-negative weight per point (one per row,
  /// `point_weights` must outlive the tree), enabling KNearestSurface.
  /// GB-kNN passes ball radii so a query ranks balls by surface
  /// distance.
  DynamicKdTree(const Matrix* points, const double* point_weights,
                int leaf_size = 16);

  /// Tombstones point `i` (must be alive). Triggers an automatic rebuild
  /// over the survivors when more than half of the currently indexed
  /// points are tombstoned.
  void Remove(int i);

  bool alive(int i) const;

  /// Number of live (non-tombstoned) points.
  int size() const override { return live_; }
  int dims() const override { return points_->cols(); }

  /// Rows in the backing matrix, including removed ones.
  int total_points() const { return points_->rows(); }
  /// Points in the current tree structure (live + tombstones); resets to
  /// size() on rebuild.
  int indexed_points() const { return built_size_; }
  /// Tombstones in the current structure (cleared by rebuild).
  int tombstones() const { return tombstones_; }
  /// Automatic rebuilds performed so far.
  int rebuilds() const { return rebuilds_; }

  /// The k nearest live points, ranked by (squared distance, index) —
  /// BruteForceIndex's order — with Euclidean distances in the result.
  /// Like every index: k larger than size() returns all live points.
  std::vector<Neighbor> KNearest(const double* query, int k) const override;

  /// All live points with squared distance <= radius², sorted by
  /// (distance, index) — BruteForceIndex's inclusion rule and order.
  std::vector<Neighbor> RadiusSearch(const double* query,
                                     double radius) const override;

  /// The k nearest live points by (squared distance, index), excluding
  /// point id `exclude` (pass -1 to exclude nothing). k larger than the
  /// number of eligible points returns all of them.
  std::vector<SquaredNeighbor> KNearestSquared(const double* query, int k,
                                               int exclude = -1) const;

  /// Requires weights (see the weighted constructor): the k live points
  /// minimizing (score, index) where
  ///     score = dist - w_i   if dist <= w_i   (query inside the ball)
  ///           = dist         otherwise,
  /// i.e. GB-kNN's granular-ball surface distance when w is the ball
  /// radius. Neighbor::distance carries the score. Subtrees are pruned
  /// with sqrt(BoxMinD2) - subtree_max_weight, a floating-point-exact
  /// lower bound on every score inside (box distance dominates each
  /// point's distance term-by-term in the same summation order, and
  /// sqrt/subtract are monotone), so the result is bit-identical to an
  /// exhaustive scan using the same arithmetic.
  std::vector<Neighbor> KNearestSurface(const double* query, int k) const;

 private:
  struct Node {
    int left = -1;  // child node ids; -1 for leaf
    int right = -1;
    int parent = -1;
    int split_dim = -1;
    double split_value = 0.0;
    int begin = 0;  // leaf: range into order_
    int end = 0;
    int live = 0;  // live points in this subtree; 0 prunes it entirely
    // Largest weight of a live-at-build point in the subtree (0 without
    // weights). Stays an overestimate after removals — still a valid
    // bound.
    double max_weight = 0.0;
  };

  int Build(int begin, int end, int parent);
  void Rebuild();

  /// Smallest squared distance from `query` to node's bounding box (0
  /// inside). Boxes are computed over the live-at-build points; they
  /// only ever overestimate after removals, so pruning stays exact.
  double BoxMinD2(int node_id, const double* query) const;

  void SearchKnn(int node_id, const double* query, int k,
                 std::vector<Neighbor>* heap) const;
  void SearchKnnSquared(int node_id, const double* query, int k, int exclude,
                        std::vector<SquaredNeighbor>* heap) const;
  void SearchRadius(int node_id, const double* query, double r2,
                    std::vector<Neighbor>* out) const;
  void SearchSurface(int node_id, const double* query, int k,
                     std::vector<Neighbor>* heap) const;

  const Matrix* points_;
  const double* weights_ = nullptr;  // per-point, for KNearestSurface
  int leaf_size_;
  std::vector<char> alive_;
  std::vector<int> order_;       // live-at-build point ids, leaves own ranges
  std::vector<int> point_leaf_;  // point id -> leaf node id (-1 if removed
                                 // before the last rebuild)
  std::vector<Node> nodes_;
  // Per-node bounding boxes, node_id * 2d: [lo_0..lo_{d-1} hi_0..hi_{d-1}].
  // Box pruning (min distance to the box, not just to the split plane)
  // is what keeps exact k-NN competitive at d ~ 8-16.
  std::vector<double> boxes_;
  int root_ = -1;
  int live_ = 0;
  int built_size_ = 0;
  int tombstones_ = 0;
  int rebuilds_ = 0;
};

}  // namespace gbx

#endif  // GBX_INDEX_DYNAMIC_KD_TREE_H_
