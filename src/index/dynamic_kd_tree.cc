#include "index/dynamic_kd_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gbx {

namespace {

bool WorseNeighbor(const Neighbor& a, const Neighbor& b) { return a < b; }
bool WorseSquared(const SquaredNeighbor& a, const SquaredNeighbor& b) {
  return a < b;
}

}  // namespace

DynamicKdTree::DynamicKdTree(const Matrix* points, int leaf_size)
    : DynamicKdTree(points, nullptr, leaf_size) {}

DynamicKdTree::DynamicKdTree(const Matrix* points,
                             const double* point_weights, int leaf_size)
    : points_(points), weights_(point_weights), leaf_size_(leaf_size) {
  GBX_CHECK(points != nullptr);
  GBX_CHECK_GE(leaf_size, 1);
  const int n = points_->rows();
  alive_.assign(n, 1);
  point_leaf_.assign(n, -1);
  order_.resize(n);
  for (int i = 0; i < n; ++i) order_[i] = i;
  live_ = n;
  built_size_ = n;
  if (n > 0) {
    nodes_.reserve(2 * order_.size() / leaf_size_ + 4);
    boxes_.reserve(nodes_.capacity() * 2 * points_->cols());
    root_ = Build(0, n, -1);
  }
}

int DynamicKdTree::Build(int begin, int end, int parent) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].parent = parent;
  nodes_[node_id].live = end - begin;
  if (weights_ != nullptr) {
    double max_w = 0.0;
    for (int i = begin; i < end; ++i) {
      max_w = std::max(max_w, weights_[order_[i]]);
    }
    nodes_[node_id].max_weight = max_w;
  }

  // The bounding box over this range doubles as the split heuristic: the
  // widest dimension is the split dimension (round-robin is pointless
  // once real spreads are known), and queries prune on the smallest
  // distance to the box — far tighter than the split plane alone at
  // medium dimensionality.
  const int d = points_->cols();
  boxes_.resize(boxes_.size() + 2 * static_cast<std::size_t>(d));
  double* lo = &boxes_[static_cast<std::size_t>(node_id) * 2 * d];
  double* hi = lo + d;
  int best_dim = 0;
  double best_spread = -1.0;
  for (int j = 0; j < d; ++j) {
    double mn = std::numeric_limits<double>::infinity();
    double mx = -mn;
    for (int i = begin; i < end; ++i) {
      const double v = points_->At(order_[i], j);
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    lo[j] = mn;
    hi[j] = mx;
    if (mx - mn > best_spread) {
      best_spread = mx - mn;
      best_dim = j;
    }
  }
  // A zero best spread means every point in the range is identical; the
  // range stays one (possibly oversized) leaf.
  if (end - begin <= leaf_size_ || best_spread <= 0.0) {
    nodes_[node_id].begin = begin;
    nodes_[node_id].end = end;
    for (int i = begin; i < end; ++i) point_leaf_[order_[i]] = node_id;
    return node_id;
  }

  const int mid = begin + (end - begin) / 2;
  std::nth_element(order_.begin() + begin, order_.begin() + mid,
                   order_.begin() + end, [&](int a, int b) {
                     const double va = points_->At(a, best_dim);
                     const double vb = points_->At(b, best_dim);
                     if (va != vb) return va < vb;
                     return a < b;
                   });
  nodes_[node_id].split_dim = best_dim;
  nodes_[node_id].split_value = points_->At(order_[mid], best_dim);
  const int left = Build(begin, mid, node_id);
  const int right = Build(mid, end, node_id);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

double DynamicKdTree::BoxMinD2(int node_id, const double* query) const {
  const int d = points_->cols();
  const double* lo = &boxes_[static_cast<std::size_t>(node_id) * 2 * d];
  return BoxMinSquaredDistance(lo, lo + d, query, d);
}

bool DynamicKdTree::alive(int i) const {
  GBX_CHECK(i >= 0 && i < points_->rows());
  return alive_[i] != 0;
}

void DynamicKdTree::Remove(int i) {
  GBX_CHECK(i >= 0 && i < points_->rows());
  GBX_CHECK_MSG(alive_[i] != 0,
                "DynamicKdTree::Remove: point already removed");
  alive_[i] = 0;
  --live_;
  ++tombstones_;
  for (int nid = point_leaf_[i]; nid >= 0; nid = nodes_[nid].parent) {
    --nodes_[nid].live;
  }
  // Amortized compaction: once the majority of the indexed points are
  // tombstones, the structure (and every query walking past them) is
  // paying for points that no longer exist.
  if (2 * tombstones_ > built_size_) Rebuild();
}

void DynamicKdTree::Rebuild() {
  order_.clear();
  const int n = points_->rows();
  for (int i = 0; i < n; ++i) {
    if (alive_[i]) order_.push_back(i);
  }
  built_size_ = static_cast<int>(order_.size());
  tombstones_ = 0;
  ++rebuilds_;
  nodes_.clear();
  boxes_.clear();
  root_ = built_size_ > 0 ? Build(0, built_size_, -1) : -1;
}

void DynamicKdTree::SearchKnn(int node_id, const double* query, int k,
                              std::vector<Neighbor>* heap) const {
  // Neighbor::distance holds the squared distance during the search —
  // the (dist2, index) order BruteForceIndex ranks by (sqrt can merge
  // distinct squared distances into ties, so ranking after the sqrt
  // would tie-break differently); KNearest applies the sqrt once to the
  // k results.
  const Node& node = nodes_[node_id];
  const int d = points_->cols();
  if (node.split_dim < 0) {
    for (int i = node.begin; i < node.end; ++i) {
      const int idx = order_[i];
      if (!alive_[idx]) continue;
      const Neighbor cand{idx, SquaredDistance(query, points_->Row(idx), d)};
      OfferToBoundedHeap(heap, cand, k);
    }
    return;
  }
  const double diff = query[node.split_dim] - node.split_value;
  const int near = diff <= 0.0 ? node.left : node.right;
  const int far = diff <= 0.0 ? node.right : node.left;
  for (const int child : {near, far}) {
    if (nodes_[child].live == 0) continue;
    // Exact in squared space: BoxMinD2 never exceeds any member's dist2
    // (term-by-term domination in the same summation order), so pruning
    // strictly above the worst retained dist2 cannot drop a candidate.
    if (static_cast<int>(heap->size()) >= k &&
        BoxMinD2(child, query) > heap->front().distance) {
      continue;
    }
    SearchKnn(child, query, k, heap);
  }
}

std::vector<Neighbor> DynamicKdTree::KNearest(const double* query,
                                              int k) const {
  GBX_CHECK_GE(k, 0);
  k = std::min(k, live_);
  if (k == 0 || root_ < 0) return {};
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  SearchKnn(root_, query, k, &heap);
  std::sort_heap(heap.begin(), heap.end(), WorseNeighbor);
  for (Neighbor& nb : heap) nb.distance = std::sqrt(nb.distance);
  return heap;
}

void DynamicKdTree::SearchKnnSquared(
    int node_id, const double* query, int k, int exclude,
    std::vector<SquaredNeighbor>* heap) const {
  const Node& node = nodes_[node_id];
  const int d = points_->cols();
  if (node.split_dim < 0) {
    for (int i = node.begin; i < node.end; ++i) {
      const int idx = order_[i];
      if (!alive_[idx] || idx == exclude) continue;
      const SquaredNeighbor cand{SquaredDistance(query, points_->Row(idx), d),
                                 idx};
      OfferToBoundedHeap(heap, cand, k);
    }
    return;
  }
  const double diff = query[node.split_dim] - node.split_value;
  const int near = diff <= 0.0 ? node.left : node.right;
  const int far = diff <= 0.0 ? node.right : node.left;
  for (const int child : {near, far}) {
    if (nodes_[child].live == 0) continue;
    // Squared space compares exactly: every point in the child has
    // dist2 >= the box distance, so pruning at "box > worst dist2" can
    // never drop an eligible candidate (an equal dist2 with a smaller
    // index still visits).
    if (static_cast<int>(heap->size()) >= k &&
        BoxMinD2(child, query) > heap->front().dist2) {
      continue;
    }
    SearchKnnSquared(child, query, k, exclude, heap);
  }
}

std::vector<SquaredNeighbor> DynamicKdTree::KNearestSquared(
    const double* query, int k, int exclude) const {
  GBX_CHECK_GE(k, 0);
  int eligible = live_;
  if (exclude >= 0 && exclude < points_->rows() && alive_[exclude]) {
    --eligible;
  }
  k = std::min(k, eligible);
  if (k <= 0 || root_ < 0) return {};
  std::vector<SquaredNeighbor> heap;
  heap.reserve(k + 1);
  SearchKnnSquared(root_, query, k, exclude, &heap);
  std::sort_heap(heap.begin(), heap.end(), WorseSquared);
  return heap;
}

void DynamicKdTree::SearchRadius(int node_id, const double* query, double r2,
                                 std::vector<Neighbor>* out) const {
  // Inclusion in squared space (d2 <= r2), exactly as BruteForceIndex
  // decides it; the sqrt happens once per hit in RadiusSearch. Pruning
  // is exact for the same reason as SearchKnn.
  const Node& node = nodes_[node_id];
  const int d = points_->cols();
  if (node.split_dim < 0) {
    for (int i = node.begin; i < node.end; ++i) {
      const int idx = order_[i];
      if (!alive_[idx]) continue;
      const double d2 = SquaredDistance(query, points_->Row(idx), d);
      if (d2 <= r2) out->push_back(Neighbor{idx, d2});
    }
    return;
  }
  for (const int child : {node.left, node.right}) {
    if (nodes_[child].live == 0) continue;
    if (BoxMinD2(child, query) > r2) continue;
    SearchRadius(child, query, r2, out);
  }
}

void DynamicKdTree::SearchSurface(int node_id, const double* query, int k,
                                  std::vector<Neighbor>* heap) const {
  const Node& node = nodes_[node_id];
  const int d = points_->cols();
  if (node.split_dim < 0) {
    for (int i = node.begin; i < node.end; ++i) {
      const int idx = order_[i];
      if (!alive_[idx]) continue;
      // The exact arithmetic of the exhaustive scan: EuclideanDistance,
      // then the containment-or-not score.
      const double dist =
          std::sqrt(SquaredDistance(query, points_->Row(idx), d));
      const double w = weights_[idx];
      const Neighbor cand{idx, dist <= w ? dist - w : dist};
      OfferToBoundedHeap(heap, cand, k);
    }
    return;
  }
  // Every score in a subtree is >= sqrt(BoxMinD2) - max_weight, exactly
  // (box distance dominates each point's squared distance term by term
  // in the same summation order; sqrt and subtraction are monotone), so
  // pruning strictly above the current worst retained score never drops
  // a candidate — equal bounds still visit, preserving index ties.
  // Descend the lower-bound side first to tighten the heap early.
  int children[2] = {node.left, node.right};
  double bounds[2];
  for (int s = 0; s < 2; ++s) {
    bounds[s] = std::sqrt(BoxMinD2(children[s], query)) -
                nodes_[children[s]].max_weight;
  }
  if (bounds[1] < bounds[0]) {
    std::swap(children[0], children[1]);
    std::swap(bounds[0], bounds[1]);
  }
  for (int s = 0; s < 2; ++s) {
    const int child = children[s];
    if (nodes_[child].live == 0) continue;
    if (static_cast<int>(heap->size()) >= k &&
        bounds[s] > heap->front().distance) {
      continue;
    }
    SearchSurface(child, query, k, heap);
  }
}

std::vector<Neighbor> DynamicKdTree::KNearestSurface(const double* query,
                                                     int k) const {
  GBX_CHECK_MSG(weights_ != nullptr,
                "DynamicKdTree::KNearestSurface requires point weights");
  GBX_CHECK_GE(k, 0);
  k = std::min(k, live_);
  if (k == 0 || root_ < 0) return {};
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  SearchSurface(root_, query, k, &heap);
  std::sort_heap(heap.begin(), heap.end(), WorseNeighbor);
  return heap;
}

std::vector<Neighbor> DynamicKdTree::RadiusSearch(const double* query,
                                                  double radius) const {
  GBX_CHECK_GE(radius, 0.0);
  std::vector<Neighbor> out;
  if (root_ < 0 || live_ == 0) return out;
  SearchRadius(root_, query, radius * radius, &out);
  for (Neighbor& nb : out) nb.distance = std::sqrt(nb.distance);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace gbx
