#include "core/engine_arena.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "util/cancel.h"
#include "util/check.h"
#include "util/combinatorics.h"
#include "util/thread_pool.h"

namespace shapcq {

namespace {

// Exact mirror of CountVector::Convolve on raw cell ranges: skip-zero outer
// and inner loops, partial products accumulated in place (no per-pair
// temporary BigInt). Any summation order yields the same exact integers; the
// loop shape is kept identical for performance parity.
std::vector<BigInt> ConvolveCells(const BigInt* a, size_t a_len,
                                  const BigInt* b, size_t b_len) {
  std::vector<BigInt> out(a_len + b_len - 1, BigInt(0));
  for (size_t i = 0; i < a_len; ++i) {
    if (a[i].IsZero()) continue;
    for (size_t j = 0; j < b_len; ++j) {
      if (b[j].IsZero()) continue;
      out[i + j].AddProductOf(a[i], b[j]);
    }
  }
  return out;
}

// Mirror of CountVector::ComplementAgainstAll: row[k] = C(n, k) - a[k] over
// the universe n = a_len - 1.
std::vector<BigInt> ComplementCells(const BigInt* a, size_t a_len) {
  std::vector<BigInt> row = Combinatorics::BinomialRow(a_len - 1);
  for (size_t k = 0; k < a_len; ++k) row[k] -= a[k];
  return row;
}

std::vector<BigInt> IdentityCells() {
  return std::vector<BigInt>(1, BigInt(1));
}

}  // namespace

EngineArena::EngineArena() = default;

// ---------------------------------------------------------------------------
// Cell store
// ---------------------------------------------------------------------------

int EngineArena::NewSlot(size_t len) {
  SHAPCQ_CHECK(cells_.size() + len <= std::numeric_limits<uint32_t>::max());
  Slot slot;
  slot.offset = static_cast<uint32_t>(cells_.size());
  slot.len = static_cast<uint32_t>(len);
  slot.cap = slot.len;
  cells_.resize(cells_.size() + len);  // value-initialized BigInt() == 0
  slots_.push_back(slot);
  return static_cast<int>(slots_.size()) - 1;
}

int EngineArena::NewSlotFrom(std::vector<BigInt> cells) {
  SHAPCQ_CHECK(cells_.size() + cells.size() <=
               std::numeric_limits<uint32_t>::max());
  // Bulk move-append (no value-init-then-overwrite pass): Build calls this
  // once or twice per node, so it is on the Build critical path.
  Slot slot;
  slot.offset = static_cast<uint32_t>(cells_.size());
  slot.len = slot.cap = static_cast<uint32_t>(cells.size());
  cells_.insert(cells_.end(), std::make_move_iterator(cells.begin()),
                std::make_move_iterator(cells.end()));
  slots_.push_back(slot);
  return static_cast<int>(slots_.size()) - 1;
}

void EngineArena::StoreSlotAt(int32_t& slot_ref, std::vector<BigInt> cells) {
  SHAPCQ_CHECK(!cells.empty());
  if (slot_ref < 0) {
    slot_ref = NewSlotFrom(std::move(cells));
    return;
  }
  Slot& slot = slots_[slot_ref];
  if (cells.size() > slot.cap) {
    // Out of place: the old range is stranded until CompactCells.
    slack_cells_ += slot.cap;
    slot.offset = static_cast<uint32_t>(cells_.size());
    slot.len = slot.cap = static_cast<uint32_t>(cells.size());
    cells_.insert(cells_.end(), std::make_move_iterator(cells.begin()),
                  std::make_move_iterator(cells.end()));
    return;
  }
  slot.len = static_cast<uint32_t>(cells.size());
  BigInt* dst = cells_.data() + slot.offset;
  for (size_t i = 0; i < cells.size(); ++i) dst[i] = std::move(cells[i]);
}

void EngineArena::EnsureSlotLen(int32_t& slot_ref, size_t len) {
  if (slot_ref < 0) {
    slot_ref = NewSlot(len);
    return;
  }
  Slot& slot = slots_[slot_ref];
  if (len > slot.cap) {
    slack_cells_ += slot.cap;
    slot.offset = static_cast<uint32_t>(cells_.size());
    slot.len = slot.cap = static_cast<uint32_t>(len);
    cells_.resize(cells_.size() + len);
    return;
  }
  slot.len = static_cast<uint32_t>(len);
}

void EngineArena::ConvolveSlotWithInto(int32_t& dst_ref, int32_t a_slot,
                                       const BigInt* b, size_t b_len) {
  SHAPCQ_CHECK(a_slot >= 0 && b_len > 0);
  const size_t a_len = slots_[a_slot].len;
  EnsureSlotLen(dst_ref, a_len + b_len - 1);  // may grow the cell buffer
  SHAPCQ_CHECK(dst_ref != a_slot);
  const Slot& a = slots_[a_slot];
  const Slot& d = slots_[dst_ref];
  const BigInt* av = cells_.data() + a.offset;
  BigInt* dst = cells_.data() + d.offset;
  for (size_t k = 0; k < d.len; ++k) dst[k] = BigInt();
  for (size_t i = 0; i < a_len; ++i) {
    if (av[i].IsZero()) continue;
    for (size_t j = 0; j < b_len; ++j) {
      if (b[j].IsZero()) continue;
      dst[i + j].AddProductOf(av[i], b[j]);
    }
  }
}

void EngineArena::ConvolveWithSlotInto(int32_t& dst_ref, const BigInt* a,
                                       size_t a_len, int32_t b_slot) {
  SHAPCQ_CHECK(b_slot >= 0 && a_len > 0);
  const size_t b_len = slots_[b_slot].len;
  EnsureSlotLen(dst_ref, a_len + b_len - 1);  // may grow the cell buffer
  SHAPCQ_CHECK(dst_ref != b_slot);
  const Slot& b = slots_[b_slot];
  const Slot& d = slots_[dst_ref];
  const BigInt* bv = cells_.data() + b.offset;
  BigInt* dst = cells_.data() + d.offset;
  for (size_t k = 0; k < d.len; ++k) dst[k] = BigInt();
  for (size_t i = 0; i < a_len; ++i) {
    if (a[i].IsZero()) continue;
    for (size_t j = 0; j < b_len; ++j) {
      if (bv[j].IsZero()) continue;
      dst[i + j].AddProductOf(a[i], bv[j]);
    }
  }
}

void EngineArena::FillSlotInPlace(int32_t slot_id, std::vector<BigInt> cells) {
  SHAPCQ_CHECK(slot_id >= 0);
  // The serial prepass pinned the exact length; the parallel fill must never
  // move the buffer (concurrent readers hold pointers into it).
  SHAPCQ_CHECK(cells.size() == slots_[slot_id].len);
  BigInt* dst = cells_.data() + slots_[slot_id].offset;
  for (size_t i = 0; i < cells.size(); ++i) dst[i] = std::move(cells[i]);
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

void EngineArena::Reserve(size_t node_count) {
  kind_.reserve(node_count);
  parent_.reserve(node_count);
  child_index_.reserve(node_count);
  child_first_.reserve(node_count);
  child_count_.reserve(node_count);
  children_.reserve(node_count);
  free_endo_.reserve(node_count);
  negated_.reserve(node_count);
  depth_.reserve(node_count);
  sat_slot_.reserve(node_count);
  core_slot_.reserve(node_count);
  prefix_slots_.reserve(node_count);
  suffix_slots_.reserve(node_count);
  prefix_valid_.reserve(node_count);
  suffix_valid_.reserve(node_count);
  r_slot_.reserve(node_count);
  rfree_slot_.reserve(node_count);
  r_epoch_.reserve(node_count);
  rfree_epoch_.reserve(node_count);
  slots_.reserve(3 * node_count);
}

int EngineArena::AppendNode(NodeKind kind, const std::vector<int>& children,
                            uint32_t free_endo, bool negated) {
  const int node = static_cast<int>(kind_.size());
  kind_.push_back(static_cast<uint8_t>(kind));
  parent_.push_back(-1);
  child_index_.push_back(-1);
  child_first_.push_back(children.empty()
                             ? -1
                             : static_cast<int32_t>(children_.size()));
  child_count_.push_back(static_cast<int32_t>(children.size()));
  for (size_t j = 0; j < children.size(); ++j) {
    children_.push_back(children[j]);
    parent_[children[j]] = node;
    child_index_[children[j]] = static_cast<int32_t>(j);
  }
  free_endo_.push_back(free_endo);
  negated_.push_back(negated ? 1 : 0);
  depth_.push_back(0);
  sat_slot_.push_back(-1);
  core_slot_.push_back(-1);
  prefix_slots_.emplace_back();
  suffix_slots_.emplace_back();
  prefix_valid_.push_back(0);
  suffix_valid_.push_back(0);
  r_slot_.push_back(-1);
  rfree_slot_.push_back(-1);
  r_epoch_.push_back(0);
  rfree_epoch_.push_back(0);
  topo_dirty_ = true;
  return node;
}

int EngineArena::AddGround(bool negated, CountVector sat) {
  const int node = AppendNode(NodeKind::kGround, {}, 0, negated);
  sat_slot_[node] = NewSlotFrom(std::move(sat).TakeCounts());
  return node;
}

int EngineArena::AddInner(NodeKind kind, const std::vector<int>& children,
                          uint32_t free_endo) {
  SHAPCQ_CHECK(kind == NodeKind::kRootVar ||
               (kind == NodeKind::kComponent && free_endo == 0));
  const int node = AppendNode(kind, children, free_endo, false);
  std::vector<BigInt> product = IdentityCells();
  for (size_t j = 0; j < children.size(); ++j) {
    product = TimesCombine(product, node, j);
  }
  StoreFromProduct(node, std::move(product));
  return node;
}

void EngineArena::SetRoot(int root) {
  SHAPCQ_CHECK(root >= 0 && static_cast<size_t>(root) < kind_.size());
  root_ = root;
  RecomputeTopo();
}

void EngineArena::EnsureTopo() {
  if (topo_dirty_) RecomputeTopo();
}

void EngineArena::RecomputeTopo() {
  const size_t n = kind_.size();
  topo_.clear();
  topo_.reserve(n);
  depth_.assign(n, 0);
  // BFS from the root over the flat child lists: parents precede children,
  // and depth_ falls out for free (the warm sweep's level grouping).
  topo_.push_back(root_);
  for (size_t head = 0; head < topo_.size(); ++head) {
    const int32_t node = topo_[head];
    const int32_t first = child_first_[node];
    for (int32_t t = 0; t < child_count_[node]; ++t) {
      const int32_t child = children_[first + t];
      depth_[child] = depth_[node] + 1;
      topo_.push_back(child);
    }
  }
  SHAPCQ_CHECK_MSG(topo_.size() == n,
                   "arena does not cover every node from the root");
  topo_dirty_ = false;
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

CountVector EngineArena::SatOf(int node) const {
  const Slot& slot = slots_[sat_slot_[node]];
  return CountVector::FromCounts(std::vector<BigInt>(
      cells_.begin() + slot.offset, cells_.begin() + slot.offset + slot.len));
}

CountVector EngineArena::BaselineSat(size_t global_free_endo) const {
  return SatOf(root_).Convolve(CountVector::All(global_free_endo));
}

int EngineArena::EfficiencyTotal() const {
  const Slot& slot = slots_[sat_slot_[root_]];
  const BigInt& all_present = cells_[slot.offset + slot.len - 1];
  const BigInt& none_present = cells_[slot.offset];
  SHAPCQ_CHECK(all_present.FitsInt64() && none_present.FitsInt64());
  return static_cast<int>(all_present.ToInt64() - none_present.ToInt64());
}

// ---------------------------------------------------------------------------
// The combine rules
// ---------------------------------------------------------------------------

std::vector<BigInt> EngineArena::CombineOf(int parent, size_t j) const {
  const Slot& slot = slots_[sat_slot_[child(parent, j)]];
  const BigInt* cells = cells_.data() + slot.offset;
  if (kind(parent) == NodeKind::kRootVar) {
    return ComplementCells(cells, slot.len);
  }
  return std::vector<BigInt>(cells, cells + slot.len);
}

std::vector<BigInt> EngineArena::TimesCombine(const std::vector<BigInt>& acc,
                                              int parent, size_t j) const {
  const Slot& slot = slots_[sat_slot_[child(parent, j)]];
  const BigInt* cells = cells_.data() + slot.offset;
  if (kind(parent) == NodeKind::kRootVar) {
    const std::vector<BigInt> unsat = ComplementCells(cells, slot.len);
    return ConvolveCells(acc.data(), acc.size(), unsat.data(), unsat.size());
  }
  return ConvolveCells(acc.data(), acc.size(), cells, slot.len);
}

void EngineArena::StoreFromProduct(int node, std::vector<BigInt> product) {
  if (kind(node) == NodeKind::kComponent) {
    StoreSlotAt(sat_slot_[node], std::move(product));
    return;
  }
  SHAPCQ_CHECK(kind(node) == NodeKind::kRootVar);
  std::vector<BigInt> core = ComplementCells(product.data(), product.size());
  StoreSlotAt(core_slot_[node], std::move(core));
  StoreSatFromCore(node);
}

void EngineArena::StoreSatFromCore(int node) {
  const std::vector<BigInt> all = Combinatorics::BinomialRow(free_endo_[node]);
  const Slot& core = slots_[core_slot_[node]];
  StoreSlotAt(sat_slot_[node],
              ConvolveCells(cells_.data() + core.offset, core.len, all.data(),
                            all.size()));
}

// ---------------------------------------------------------------------------
// Sibling partial products
// ---------------------------------------------------------------------------

void EngineArena::EnsurePartialsAllocated(int parent) {
  const size_t m = static_cast<size_t>(child_count_[parent]);
  std::vector<int32_t>& prefix = prefix_slots_[parent];
  std::vector<int32_t>& suffix = suffix_slots_[parent];
  if (prefix.size() == m + 1) {
    SHAPCQ_CHECK(suffix.size() == m + 1);
    return;
  }
  SHAPCQ_CHECK(prefix.empty() && suffix.empty());
  prefix.assign(m + 1, -1);
  suffix.assign(m + 1, -1);
  StoreSlotAt(prefix[0], IdentityCells());
  StoreSlotAt(suffix[m], IdentityCells());
  prefix_valid_[parent] = 0;
  suffix_valid_[parent] = static_cast<uint32_t>(m);
}

void EngineArena::PrefixUpTo(int parent, size_t j) {
  std::vector<int32_t>& prefix = prefix_slots_[parent];
  for (size_t i = prefix_valid_[parent]; i < j; ++i) {
    const std::vector<BigInt> combine = CombineOf(parent, i);
    ConvolveSlotWithInto(prefix[i + 1], prefix[i], combine.data(),
                         combine.size());
  }
  prefix_valid_[parent] =
      std::max(prefix_valid_[parent], static_cast<uint32_t>(j));
}

void EngineArena::SuffixFrom(int parent, size_t i) {
  std::vector<int32_t>& suffix = suffix_slots_[parent];
  const size_t m = static_cast<size_t>(child_count_[parent]);
  if (suffix_valid_[parent] == m && suffix[m] < 0) {
    // A splice reset the suffix side; re-seed the identity at the new end.
    StoreSlotAt(suffix[m], IdentityCells());
  }
  for (size_t k = suffix_valid_[parent]; k > i; --k) {
    const std::vector<BigInt> combine = CombineOf(parent, k - 1);
    ConvolveWithSlotInto(suffix[k - 1], combine.data(), combine.size(),
                         suffix[k]);
  }
  suffix_valid_[parent] =
      std::min(suffix_valid_[parent], static_cast<uint32_t>(i));
}

std::vector<BigInt> EngineArena::SiblingCombine(int parent, size_t j) {
  EnsurePartialsAllocated(parent);
  PrefixUpTo(parent, j);
  SuffixFrom(parent, j + 1);
  // Pointers only after both builders ran: they may grow the cell buffer.
  const Slot& pre = slots_[prefix_slots_[parent][j]];
  const Slot& suf = slots_[suffix_slots_[parent][j + 1]];
  return ConvolveCells(cells_.data() + pre.offset, pre.len,
                       cells_.data() + suf.offset, suf.len);
}

// ---------------------------------------------------------------------------
// Mutation patches
// ---------------------------------------------------------------------------

void EngineArena::SetLeafSat(int leaf, CountVector sat) {
  SHAPCQ_CHECK(kind(leaf) == NodeKind::kGround);
  StoreSlotAt(sat_slot_[leaf], std::move(sat).TakeCounts());
}

void EngineArena::SetFreeEndo(int node, uint32_t free_endo) {
  SHAPCQ_CHECK(kind(node) == NodeKind::kRootVar);
  free_endo_[node] = free_endo;
  StoreSatFromCore(node);
}

void EngineArena::SpliceNewChild(int parent, int child) {
  SHAPCQ_CHECK(kind(parent) == NodeKind::kRootVar);
  SHAPCQ_CHECK(parent_[child] == -1 && child != root_);
  const size_t m = child_count(parent);

  // Append to the parent's child list by relocating it to the end of the
  // flat array (the old range is a few stranded ints, reclaimed never —
  // splices are rare and the ints are tiny next to the cells).
  const int32_t new_first = static_cast<int32_t>(children_.size());
  const int32_t old_first = child_first_[parent];
  for (size_t t = 0; t < m; ++t) {
    children_.push_back(children_[old_first + static_cast<int32_t>(t)]);
  }
  children_.push_back(child);
  child_first_[parent] = new_first;
  child_count_[parent] = static_cast<int32_t>(m + 1);
  parent_[child] = parent;
  child_index_[child] = static_cast<int32_t>(m);
  topo_dirty_ = true;

  // The old children's unsat product is All − core; fold in the new one.
  const Slot& core = slots_[core_slot_[parent]];
  const BigInt* core_cells = cells_.data() + core.offset;
  const std::vector<BigInt> old_unsat = ComplementCells(core_cells, core.len);
  StoreFromProduct(parent, TimesCombine(old_unsat, parent, m));

  // Partial products: grown prefixes keep their valid entries (they exclude
  // the appended child); every suffix entry misses it, so the suffix side
  // resets to the (new) identity end.
  if (!prefix_slots_[parent].empty()) {
    prefix_slots_[parent].resize(m + 2, -1);
    suffix_slots_[parent].resize(m + 2, -1);
    prefix_valid_[parent] =
        std::min(prefix_valid_[parent], static_cast<uint32_t>(m + 1));
    suffix_valid_[parent] = static_cast<uint32_t>(m + 1);
    suffix_slots_[parent][m + 1] = -1;  // re-seeded by the next SuffixFrom
  }
}

void EngineArena::PatchChildChanged(int parent, size_t j) {
  StoreFromProduct(parent, TimesCombine(SiblingCombine(parent, j), parent, j));
  // Shrink the watermarks to exclude entries embedding child j's replaced
  // combine vector: prefix[0..j] and suffix[j+1..] stay warm for the next
  // patch through the same child.
  if (!prefix_slots_[parent].empty()) {
    prefix_valid_[parent] =
        std::min(prefix_valid_[parent], static_cast<uint32_t>(j));
    suffix_valid_[parent] =
        std::max(suffix_valid_[parent], static_cast<uint32_t>(j + 1));
  }
}

void EngineArena::InvalidateValues() { ++epoch_; }

// ---------------------------------------------------------------------------
// Evaluation: the difference-propagation sweep
// ---------------------------------------------------------------------------

void EngineArena::EnsureRFree(int node, size_t global_free_endo) {
  if (rfree_epoch_[node] == epoch_) return;
  EnsureR(node, global_free_endo);
  const bool has_factor =
      kind(node) == NodeKind::kRootVar && free_endo_[node] > 0;
  if (!has_factor) {
    rfree_slot_[node] = r_slot_[node];  // alias: the factor is the identity
  } else {
    const std::vector<BigInt> all =
        Combinatorics::BinomialRow(free_endo_[node]);
    // A stale alias from an earlier epoch must not clobber r's cells.
    if (rfree_slot_[node] == r_slot_[node]) rfree_slot_[node] = -1;
    ConvolveSlotWithInto(rfree_slot_[node], r_slot_[node], all.data(),
                         all.size());
  }
  rfree_epoch_[node] = epoch_;
}

void EngineArena::EnsureR(int node, size_t global_free_endo) {
  if (r_epoch_[node] == epoch_) return;
  if (node == root_) {
    StoreSlotAt(r_slot_[node], Combinatorics::BinomialRow(global_free_endo));
  } else {
    const int parent = parent_[node];
    EnsureRFree(parent, global_free_endo);
    const std::vector<BigInt> ctx =
        SiblingCombine(parent, static_cast<size_t>(child_index_[node]));
    ConvolveSlotWithInto(r_slot_[node], rfree_slot_[parent], ctx.data(),
                         ctx.size());
  }
  r_epoch_[node] = epoch_;
}

void EngineArena::EnsureWeights(size_t n) {
  if (weights_.size() == n) return;
  std::vector<BigInt> factorial(n, BigInt(1));  // factorial[k] = k!
  for (size_t k = 1; k < n; ++k) {
    factorial[k] = factorial[k - 1] * BigInt(static_cast<int64_t>(k));
  }
  weights_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    weights_[k] = factorial[k] * factorial[n - 1 - k];
  }
}

BigInt EngineArena::NumeratorAtLeaf(int leaf, size_t endo_count,
                                    size_t global_free_endo) {
  SHAPCQ_CHECK(kind(leaf) == NodeKind::kGround);
  SHAPCQ_CHECK(endo_count >= 1);
  EnsureR(leaf, global_free_endo);
  EnsureWeights(endo_count);
  const Slot& slot = slots_[r_slot_[leaf]];
  // r spans the universe of the other endo_count - 1 players, exactly like
  // the two propagated vectors ShapleyFromSatCounts subtracts.
  SHAPCQ_CHECK(slot.len == endo_count);
  const BigInt* r = cells_.data() + slot.offset;
  BigInt numerator(0);
  for (size_t k = 0; k < endo_count; ++k) {
    if (!r[k].IsZero()) numerator.AddProductOf(weights_[k], r[k]);
  }
  if (negated_[leaf] != 0) numerator = -numerator;
  return numerator;
}

bool EngineArena::WarmValuePaths(const std::vector<int>& leaves,
                                 size_t global_free_endo, size_t num_threads,
                                 const CancelToken* cancel) {
  if (root_ < 0 || leaves.empty()) return true;
  if (cancel != nullptr && cancel->Expired()) return false;
  const size_t threads = ThreadPool::ResolveThreadCount(num_threads);
  if (threads <= 1) {
    for (int leaf : leaves) {
      if (cancel != nullptr && cancel->Expired()) return false;
      EnsureR(leaf, global_free_endo);
    }
    return true;
  }
  EnsureTopo();
  const size_t n = kind_.size();

  // Mark every node whose r is cold along the leaves' root paths. A warm
  // node's ancestors are warm by construction, so climbing stops early.
  std::vector<uint8_t> need_r(n, 0);
  for (int leaf : leaves) {
    for (int node = leaf;; node = parent_[node]) {
      if (r_epoch_[node] == epoch_ || need_r[node] != 0) break;
      need_r[node] = 1;
      if (node == root_) break;
    }
  }

  // Per-parent needs: which child contexts the sweep reads (as a prefix-max
  // and suffix-min index), and whether rfree must be derived. Parents with a
  // warm r can still owe partials (a previous round warmed other children).
  constexpr int32_t kNoIndex = -1;
  std::vector<int32_t> need_prefix_to(n, kNoIndex);
  std::vector<int32_t> need_suffix_from(n, kNoIndex);
  std::vector<uint8_t> need_rfree(n, 0);
  std::vector<uint8_t> in_worklist(n, 0);
  bool any = false;
  for (size_t node = 0; node < n; ++node) {
    if (need_r[node] == 0) continue;
    any = true;
    in_worklist[node] = 1;
    if (static_cast<int32_t>(node) == root_) continue;
    const int32_t p = parent_[node];
    const int32_t j = child_index_[node];
    in_worklist[p] = 1;
    need_prefix_to[p] = std::max(need_prefix_to[p], j);
    need_suffix_from[p] = need_suffix_from[p] == kNoIndex
                              ? j + 1
                              : std::min(need_suffix_from[p], j + 1);
    if (rfree_epoch_[p] != epoch_) need_rfree[p] = 1;
  }
  if (!any) return true;

  // Serial prepass, in (depth, id) order: compute every result's exact
  // length (universes add under convolution, so lengths are static functions
  // of the child sat lengths) and pin a slot for it. After this pass the
  // cell buffer never grows again, so the parallel fill below publishes
  // ranges no reallocation can move.
  std::vector<int32_t> worklist;
  for (int32_t node : topo_) {
    if (in_worklist[node] != 0) worklist.push_back(node);
  }
  size_t max_universe = global_free_endo;
  for (int32_t node : worklist) {
    const size_t m = static_cast<size_t>(child_count_[node]);
    if (need_prefix_to[node] != kNoIndex) {
      EnsurePartialsAllocated(node);
      std::vector<size_t> combine_len(m);
      for (size_t t = 0; t < m; ++t) {
        combine_len[t] = SlotLen(sat_slot_[children_[child_first_[node] +
                                                     static_cast<int32_t>(t)]]);
        max_universe = std::max(max_universe, combine_len[t] - 1);
      }
      std::vector<int32_t>& prefix = prefix_slots_[node];
      std::vector<int32_t>& suffix = suffix_slots_[node];
      size_t prefix_len = 1;
      for (size_t i = 0; i < m; ++i) {
        if (i + 1 > static_cast<size_t>(prefix_valid_[node]) &&
            i + 1 <= static_cast<size_t>(need_prefix_to[node])) {
          EnsureSlotLen(prefix[i + 1], prefix_len + combine_len[i] - 1);
        }
        prefix_len += combine_len[i] - 1;
      }
      if (suffix_valid_[node] == m && suffix[m] < 0) {
        EnsureSlotLen(suffix[m], 1);
        cells_[slots_[suffix[m]].offset] = BigInt(1);
      }
      size_t suffix_len = 1;
      for (size_t i = m; i-- > 0;) {
        suffix_len += combine_len[i] - 1;
        if (i < static_cast<size_t>(suffix_valid_[node]) &&
            i >= static_cast<size_t>(need_suffix_from[node])) {
          EnsureSlotLen(suffix[i], suffix_len);
        }
      }
    }
    // r and rfree lengths flow top-down: parents precede children in the
    // worklist, so the parent's rfree slot length is pinned by the time any
    // child computes its own (aliased to r when the factor is the identity).
    if (need_r[node] != 0) {
      size_t r_len;
      if (node == root_) {
        r_len = global_free_endo + 1;
      } else {
        const int32_t p = parent_[node];
        const size_t rfree_len = SlotLen(rfree_slot_[p]);
        // ctx universe = the parent's minus this child's: sum the sibling
        // sat lengths.
        size_t ctx_len = 1;
        const size_t siblings = static_cast<size_t>(child_count_[p]);
        for (size_t t = 0; t < siblings; ++t) {
          if (static_cast<int32_t>(t) == child_index_[node]) continue;
          ctx_len += SlotLen(sat_slot_[children_[child_first_[p] +
                                                 static_cast<int32_t>(t)]]) -
                     1;
        }
        r_len = rfree_len + ctx_len - 1;
      }
      EnsureSlotLen(r_slot_[node], r_len);
      max_universe = std::max(max_universe, r_len - 1);
    }
    if (need_rfree[node] != 0) {
      const bool has_factor =
          kind(node) == NodeKind::kRootVar && free_endo_[node] > 0;
      if (!has_factor) {
        rfree_slot_[node] = r_slot_[node];
      } else {
        if (rfree_slot_[node] == r_slot_[node]) rfree_slot_[node] = -1;
        const size_t rfree_len = SlotLen(r_slot_[node]) + free_endo_[node];
        EnsureSlotLen(rfree_slot_[node], rfree_len);
        max_universe = std::max(max_universe, rfree_len);
      }
    }
  }
  Combinatorics::Prewarm(max_universe);

  // Level-parallel fill. Every task writes only slots its node owns (r,
  // rfree, its own partial entries, its own watermarks) and reads only its
  // parent's slots — finished one level earlier, with the ParallelFor join
  // as the happens-before edge. Values are bit-identical to the serial
  // sweep: identical exact-integer formulas into pre-assigned slots.
  std::vector<std::vector<int32_t>> levels;
  for (int32_t node : worklist) {
    const size_t d = static_cast<size_t>(depth_[node]);
    if (levels.size() <= d) levels.resize(d + 1);
    levels[d].push_back(node);
  }
  // Cancellation polls sit BETWEEN levels: inside a level every slot write
  // is all-or-nothing per task, and the epoch watermarks of a level that
  // never ran simply stay cold — a cancelled sweep leaves the arena in a
  // state the serial on-demand path recomputes from correctly.
  ThreadPool pool(threads);
  for (const std::vector<int32_t>& level : levels) {
    if (cancel != nullptr && cancel->Expired()) return false;
    pool.ParallelFor(level.size(), [&](size_t index) {
      const int32_t node = level[index];
      if (need_r[node] != 0) {
        std::vector<BigInt> r;
        if (node == root_) {
          r = Combinatorics::BinomialRow(global_free_endo);
        } else {
          const int32_t p = parent_[node];
          const size_t j = static_cast<size_t>(child_index_[node]);
          const Slot& pre = slots_[prefix_slots_[p][j]];
          const Slot& suf = slots_[suffix_slots_[p][j + 1]];
          const std::vector<BigInt> ctx =
              ConvolveCells(cells_.data() + pre.offset, pre.len,
                            cells_.data() + suf.offset, suf.len);
          const Slot& rfree = slots_[rfree_slot_[p]];
          r = ConvolveCells(cells_.data() + rfree.offset, rfree.len,
                            ctx.data(), ctx.size());
        }
        FillSlotInPlace(r_slot_[node], std::move(r));
        r_epoch_[node] = epoch_;
      }
      if (need_prefix_to[node] != kNoIndex) {
        const std::vector<int32_t>& prefix = prefix_slots_[node];
        const std::vector<int32_t>& suffix = suffix_slots_[node];
        for (size_t i = prefix_valid_[node];
             i < static_cast<size_t>(need_prefix_to[node]); ++i) {
          const std::vector<BigInt> combine = CombineOf(node, i);
          const Slot& prev = slots_[prefix[i]];
          FillSlotInPlace(prefix[i + 1],
                          ConvolveCells(cells_.data() + prev.offset, prev.len,
                                        combine.data(), combine.size()));
        }
        prefix_valid_[node] =
            std::max(prefix_valid_[node],
                     static_cast<uint32_t>(need_prefix_to[node]));
        for (size_t k = suffix_valid_[node];
             k > static_cast<size_t>(need_suffix_from[node]); --k) {
          const std::vector<BigInt> combine = CombineOf(node, k - 1);
          const Slot& next = slots_[suffix[k]];
          FillSlotInPlace(suffix[k - 1],
                          ConvolveCells(combine.data(), combine.size(),
                                        cells_.data() + next.offset,
                                        next.len));
        }
        suffix_valid_[node] =
            std::min(suffix_valid_[node],
                     static_cast<uint32_t>(need_suffix_from[node]));
      }
      if (need_rfree[node] != 0 && rfree_slot_[node] != r_slot_[node]) {
        const std::vector<BigInt> all =
            Combinatorics::BinomialRow(free_endo_[node]);
        const Slot& r = slots_[r_slot_[node]];
        FillSlotInPlace(rfree_slot_[node],
                        ConvolveCells(cells_.data() + r.offset, r.len,
                                      all.data(), all.size()));
      }
      if (need_rfree[node] != 0) rfree_epoch_[node] = epoch_;
    });
  }
  return true;
}

// ---------------------------------------------------------------------------
// Accounting, compaction, invariants
// ---------------------------------------------------------------------------

size_t EngineArena::ApproxMemoryBytes() const {
  size_t bytes = sizeof(EngineArena);
  bytes += cells_.capacity() * sizeof(BigInt);
  // Inline magnitudes (|Dn| <= 192 bits) cost exactly their slot, already
  // counted above; only heap-spilled cells add their limb buffers (the term
  // below is zero for inline cells).
  for (const BigInt& cell : cells_) {
    bytes += cell.ApproxMemoryBytes() - sizeof(BigInt);
  }
  bytes += slots_.capacity() * sizeof(Slot);
  bytes += kind_.capacity() * sizeof(uint8_t);
  bytes += negated_.capacity() * sizeof(uint8_t);
  bytes += (parent_.capacity() + child_index_.capacity() +
            child_first_.capacity() + child_count_.capacity() +
            children_.capacity() + topo_.capacity() + depth_.capacity() +
            sat_slot_.capacity() + core_slot_.capacity() +
            r_slot_.capacity() + rfree_slot_.capacity()) *
           sizeof(int32_t);
  bytes += (free_endo_.capacity() + prefix_valid_.capacity() +
            suffix_valid_.capacity() + r_epoch_.capacity() +
            rfree_epoch_.capacity()) *
           sizeof(uint32_t);
  for (const std::vector<int32_t>& ids : prefix_slots_) {
    bytes += sizeof(ids) + ids.capacity() * sizeof(int32_t);
  }
  for (const std::vector<int32_t>& ids : suffix_slots_) {
    bytes += sizeof(ids) + ids.capacity() * sizeof(int32_t);
  }
  bytes += (weights_.capacity() - weights_.size()) * sizeof(BigInt);
  for (const BigInt& weight : weights_) bytes += weight.ApproxMemoryBytes();
  return bytes;
}

void EngineArena::CompactCells() {
  // Live slots in first-reference order: node-major, vector-kind-minor. An
  // rfree alias of r is visited once.
  std::vector<int32_t> live;
  std::vector<uint8_t> seen(slots_.size(), 0);
  auto visit = [&](int32_t slot) {
    if (slot < 0 || seen[slot] != 0) return;
    seen[slot] = 1;
    live.push_back(slot);
  };
  for (size_t node = 0; node < kind_.size(); ++node) {
    visit(sat_slot_[node]);
    visit(core_slot_[node]);
    for (int32_t slot : prefix_slots_[node]) visit(slot);
    for (int32_t slot : suffix_slots_[node]) visit(slot);
    visit(r_slot_[node]);
    visit(rfree_slot_[node]);
  }
  size_t total = 0;
  for (int32_t slot : live) total += slots_[slot].len;
  std::vector<BigInt> packed(total);
  size_t at = 0;
  for (int32_t slot : live) {
    Slot& s = slots_[slot];
    for (uint32_t i = 0; i < s.len; ++i) {
      packed[at + i] = std::move(cells_[s.offset + i]);
    }
    s.offset = static_cast<uint32_t>(at);
    s.cap = s.len;
    at += s.len;
  }
  // Slot ids abandoned by re-ranged partial lists keep their structs but
  // point at an empty range.
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    if (seen[slot] == 0) slots_[slot] = Slot{};
  }
  cells_ = std::move(packed);
  slack_cells_ = 0;
}

void EngineArena::CheckInvariants() const {
  const size_t n = kind_.size();
  SHAPCQ_CHECK(parent_.size() == n && child_index_.size() == n &&
               child_first_.size() == n && child_count_.size() == n &&
               free_endo_.size() == n && negated_.size() == n &&
               depth_.size() == n && sat_slot_.size() == n &&
               core_slot_.size() == n && prefix_slots_.size() == n &&
               suffix_slots_.size() == n && prefix_valid_.size() == n &&
               suffix_valid_.size() == n && r_slot_.size() == n &&
               rfree_slot_.size() == n && r_epoch_.size() == n &&
               rfree_epoch_.size() == n);
  if (n == 0) return;
  SHAPCQ_CHECK(root_ >= 0 && static_cast<size_t>(root_) < n);
  SHAPCQ_CHECK(parent_[root_] == -1);
  for (size_t node = 0; node < n; ++node) {
    const int32_t m = child_count_[node];
    SHAPCQ_CHECK(m >= 0);
    SHAPCQ_CHECK(m == 0 || child_first_[node] >= 0);
    if (m > 0) {
      SHAPCQ_CHECK(static_cast<size_t>(child_first_[node]) + m <=
                   children_.size());
    }
    for (int32_t t = 0; t < m; ++t) {
      const int32_t child = children_[child_first_[node] + t];
      SHAPCQ_CHECK(child >= 0 && static_cast<size_t>(child) < n);
      SHAPCQ_CHECK(parent_[child] == static_cast<int32_t>(node));
      SHAPCQ_CHECK(child_index_[child] == t);
    }
    SHAPCQ_CHECK(sat_slot_[node] >= 0);
    SHAPCQ_CHECK((core_slot_[node] >= 0) ==
                 (kind(static_cast<int>(node)) == NodeKind::kRootVar));
    SHAPCQ_CHECK(kind(static_cast<int>(node)) != NodeKind::kGround || m == 0);
    SHAPCQ_CHECK(prefix_slots_[node].empty() ||
                 prefix_slots_[node].size() == static_cast<size_t>(m) + 1);
    SHAPCQ_CHECK(prefix_slots_[node].size() == suffix_slots_[node].size());
    SHAPCQ_CHECK(prefix_valid_[node] <= static_cast<uint32_t>(m));
    SHAPCQ_CHECK(suffix_valid_[node] <= static_cast<uint32_t>(m));
  }
  for (const Slot& slot : slots_) {
    SHAPCQ_CHECK(slot.len <= slot.cap);
    SHAPCQ_CHECK(static_cast<size_t>(slot.offset) + slot.cap <= cells_.size());
  }
  if (!topo_dirty_) {
    // Topological order: covers every node exactly once, root first,
    // parents strictly before children.
    SHAPCQ_CHECK(topo_.size() == n);
    std::vector<int32_t> position(n, -1);
    for (size_t i = 0; i < topo_.size(); ++i) {
      const int32_t node = topo_[i];
      SHAPCQ_CHECK(node >= 0 && static_cast<size_t>(node) < n);
      SHAPCQ_CHECK(position[node] == -1);
      position[node] = static_cast<int32_t>(i);
    }
    SHAPCQ_CHECK(topo_[0] == root_);
    for (size_t node = 0; node < n; ++node) {
      if (parent_[node] >= 0) {
        SHAPCQ_CHECK(position[parent_[node]] < position[node]);
        SHAPCQ_CHECK(depth_[node] == depth_[parent_[node]] + 1);
      }
    }
  }
}

}  // namespace shapcq
