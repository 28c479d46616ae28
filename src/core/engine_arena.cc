#include "core/engine_arena.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>

#include "util/cancel.h"
#include "util/check.h"
#include "util/combinatorics.h"
#include "util/thread_pool.h"

namespace shapcq {

namespace {

bool IsZeroCells(const std::vector<BigInt>& cells) {
  return std::all_of(cells.begin(), cells.end(),
                     [](const BigInt& cell) { return cell.IsZero(); });
}

// x *= p^e, in chunks of one signed limb.
void MultiplyPower(BigInt& x, int64_t p, size_t e) {
  while (e > 0) {
    int64_t chunk = 1;
    for (; e > 0 && chunk <= std::numeric_limits<int64_t>::max() / p; --e) {
      chunk *= p;
    }
    x *= BigInt(chunk);
  }
}

// Multiplies a child's combine vector into its parent's running product, or,
// when the vector is zero, counts it in `zero_count` instead.
void MultiplyIn(std::vector<BigInt>& product, uint32_t& zero_count,
                const std::vector<BigInt>& combine) {
  if (IsZeroCells(combine)) {
    ++zero_count;
    return;
  }
  std::vector<BigInt> out(product.size() + combine.size() - 1);
  ConvolveCounts(product.data(), product.size(), combine.data(),
                 combine.size(), out.data());
  product = std::move(out);
}

// Exact quotient p / d of two count vectors, d nonzero and dividing p. Solved
// from d's lowest nonzero cell d_s upwards: p_{k+s} = q_k·d_s + Σ_{i<k}
// q_i·d_{k+s−i} gives each q_k from the ones below it, with a BigInt
// division only when d_s is not 1. The cells no q_k is solved from (below s,
// and the top |d| − 1 − s) are checked against q ⊛ d, as is every
// remainder. O(|p|·|d|).
std::vector<BigInt> DivideCells(const BigInt* p, size_t p_len,
                                const BigInt* d, size_t d_len) {
  size_t s = 0;
  while (s < d_len && d[s].IsZero()) ++s;
  SHAPCQ_CHECK(s < d_len && d_len <= p_len);
  const size_t q_len = p_len - d_len + 1;
  std::vector<BigInt> q(q_len);
  BigInt remainder;
  for (size_t m = 0; m < s; ++m) SHAPCQ_CHECK(p[m].IsZero());
  for (size_t m = s; m < p_len; ++m) {
    const size_t k = m - s;
    BigInt solved;  // Σ q_i·d_{m−i} over the q_i already known
    for (size_t i = m + 1 > d_len ? m + 1 - d_len : 0; i < std::min(k, q_len);
         ++i) {
      solved.AddProductOf(q[i], d[m - i]);
    }
    if (k >= q_len) {
      SHAPCQ_CHECK(solved == p[m]);
      continue;
    }
    BigInt cell = p[m];
    cell -= solved;
    if (d[s].IsOne()) {
      q[k] = std::move(cell);
    } else {
      BigInt::DivMod(cell, d[s], &q[k], &remainder);
      SHAPCQ_CHECK(remainder.IsZero());
    }
  }
  return q;
}

}  // namespace

EngineArena::EngineArena() = default;

// ---------------------------------------------------------------------------
// Cell store
// ---------------------------------------------------------------------------

int EngineArena::NewSlot(std::vector<BigInt> cells) {
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

void EngineArena::StoreSlotAt(int32_t slot_id, std::vector<BigInt> cells) {
  SHAPCQ_CHECK(!cells.empty());
  Slot& slot = slots_[slot_id];
  if (cells.size() > slot.cap) {
    // Out of place: the old range is stranded until the next compaction.
    SHAPCQ_CHECK(cells_.size() + cells.size() <=
                 std::numeric_limits<uint32_t>::max());
    slack_cells_ += slot.cap;
    slot.offset = static_cast<uint32_t>(cells_.size());
    slot.cap = static_cast<uint32_t>(cells.size());
    cells_.resize(cells_.size() + cells.size());
  }
  slot.len = static_cast<uint32_t>(cells.size());
  std::move(cells.begin(), cells.end(), cells_.begin() + slot.offset);
  // Each compaction is paid for by the stranded cells since the last one.
  if (2 * slack_cells_ > cells_.size()) CompactCells();
}

std::vector<BigInt> EngineArena::CellsOf(int32_t slot_id) const {
  const Slot& slot = slots_[slot_id];
  return std::vector<BigInt>(cells_.begin() + slot.offset,
                             cells_.begin() + slot.offset + slot.len);
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
  negated_.reserve(node_count);
  depth_.reserve(node_count);
  sat_slot_.reserve(node_count);
  product_slot_.reserve(node_count);
  zero_count_.reserve(node_count);
  slots_.reserve(2 * node_count);
}

int EngineArena::AppendNode(NodeKind kind, const std::vector<int>& children,
                            bool negated) {
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
  negated_.push_back(negated ? 1 : 0);
  depth_.push_back(0);
  sat_slot_.push_back(-1);
  product_slot_.push_back(-1);
  zero_count_.push_back(0);
  topo_dirty_ = true;
  return node;
}

int EngineArena::AddGround(bool negated, CountVector sat) {
  const int node = AppendNode(NodeKind::kGround, {}, negated);
  sat_slot_[node] = NewSlot(std::move(sat).TakeCounts());
  return node;
}

int EngineArena::AddInner(NodeKind kind, const std::vector<int>& children) {
  SHAPCQ_CHECK(kind != NodeKind::kGround);
  const int node = AppendNode(kind, children, false);
  std::vector<BigInt> product(1, BigInt(1));  // the empty product
  size_t universe = 0;
  for (size_t j = 0; j < children.size(); ++j) {
    const std::vector<BigInt> combine = CombineOf(node, j);
    universe += combine.size() - 1;
    MultiplyIn(product, zero_count_[node], combine);
  }
  product_slot_[node] = NewSlot(std::move(product));
  sat_slot_[node] = NewSlot(SatFromProduct(node, universe));
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
  // and depth_ falls out for free (the sweep's level grouping).
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
  return CountVector::FromCounts(CellsOf(sat_slot_[node]));
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
    return ComplementCounts(cells, slot.len);
  }
  return std::vector<BigInt>(cells, cells + slot.len);
}

std::vector<BigInt> EngineArena::ProductWithout(
    int parent, const std::vector<BigInt>& combine) const {
  const Slot& product = slots_[product_slot_[parent]];
  return DivideCells(cells_.data() + product.offset, product.len,
                     combine.data(), combine.size());
}

std::vector<BigInt> EngineArena::ContextOf(int parent, size_t j) const {
  const std::vector<BigInt> combine = CombineOf(parent, j);
  const uint32_t zeros = zero_count_[parent];
  if (zeros == 0) return ProductWithout(parent, combine);
  if (zeros == 1 && IsZeroCells(combine)) {
    return CellsOf(product_slot_[parent]);
  }
  // A zero sibling: the context is 0 over the parent's universe minus j's.
  return std::vector<BigInt>(SlotLen(sat_slot_[parent]) - combine.size() + 1);
}

std::vector<BigInt> EngineArena::SatFromProduct(int node,
                                                size_t universe) const {
  const bool zero = zero_count_[node] > 0;
  if (!zero) SHAPCQ_CHECK(SlotLen(product_slot_[node]) == universe + 1);
  if (kind(node) == NodeKind::kComponent) {
    return zero ? std::vector<BigInt>(universe + 1)
                : CellsOf(product_slot_[node]);
  }
  SHAPCQ_CHECK(kind(node) == NodeKind::kRootVar);
  if (zero) return Combinatorics::BinomialRow(universe);
  const Slot& product = slots_[product_slot_[node]];
  return ComplementCounts(cells_.data() + product.offset, product.len);
}

void EngineArena::StoreSatUpward(int node, std::vector<BigInt> sat) {
  for (int parent = parent_[node]; parent >= 0;
       node = parent, parent = parent_[node]) {
    const size_t j = child_index(node);
    // The child's old combine vector must be read before its sat is
    // overwritten.
    const std::vector<BigInt> old_combine = CombineOf(parent, j);
    const size_t universe =
        SlotLen(sat_slot_[parent]) - old_combine.size() + sat.size() - 1;
    StoreSlotAt(sat_slot_[node], std::move(sat));
    std::vector<BigInt> product;
    if (IsZeroCells(old_combine)) {
      SHAPCQ_CHECK(zero_count_[parent] > 0);
      --zero_count_[parent];
      product = CellsOf(product_slot_[parent]);
    } else {
      product = ProductWithout(parent, old_combine);
    }
    MultiplyIn(product, zero_count_[parent], CombineOf(parent, j));
    StoreSlotAt(product_slot_[parent], std::move(product));
    sat = SatFromProduct(parent, universe);
  }
  StoreSlotAt(sat_slot_[node], std::move(sat));
}

// ---------------------------------------------------------------------------
// Mutation patches
// ---------------------------------------------------------------------------

void EngineArena::SetLeafSat(int leaf, CountVector sat) {
  SHAPCQ_CHECK(kind(leaf) == NodeKind::kGround);
  StoreSatUpward(leaf, std::move(sat).TakeCounts());
}

void EngineArena::SpliceNewChild(int parent, int child) {
  SHAPCQ_CHECK(kind(parent) == NodeKind::kRootVar);
  SHAPCQ_CHECK(parent_[child] == -1 && child != root_);
  const size_t m = child_count(parent);

  // Append to the parent's child list by relocating it to the end of the
  // flat array; the old range is stranded until the next compaction.
  const int32_t new_first = static_cast<int32_t>(children_.size());
  const int32_t old_first = child_first_[parent];
  for (size_t t = 0; t < m; ++t) {
    children_.push_back(children_[old_first + static_cast<int32_t>(t)]);
  }
  children_.push_back(child);
  stranded_children_ += m;
  child_first_[parent] = new_first;
  child_count_[parent] = static_cast<int32_t>(m + 1);
  parent_[child] = parent;
  child_index_[child] = static_cast<int32_t>(m);
  topo_dirty_ = true;
  if (2 * stranded_children_ > children_.size()) CompactChildren();

  const std::vector<BigInt> combine = CombineOf(parent, m);
  const size_t universe = SlotLen(sat_slot_[parent]) + combine.size() - 2;
  std::vector<BigInt> product = CellsOf(product_slot_[parent]);
  MultiplyIn(product, zero_count_[parent], combine);
  StoreSlotAt(product_slot_[parent], std::move(product));
  StoreSatUpward(parent, SatFromProduct(parent, universe));
}

// ---------------------------------------------------------------------------
// Evaluation: the difference-propagation sweep
// ---------------------------------------------------------------------------

WeightRow WeightRow::For(size_t n) {
  SHAPCQ_CHECK(n >= 1);
  const size_t m = n - 1;  // w_k = k!(m−k)!
  WeightRow row;
  row.common = BigInt(1);
  BigInt first(1);  // w_0/G = m!/G
  std::vector<uint8_t> composite(n, 0);
  for (size_t p = 2; p <= m; ++p) {
    if (composite[p] != 0) continue;
    for (size_t j = p * p; j <= m; j += p) composite[j] = 1;
    // v_p(k!) + v_p((m−k)!) = v_p(m!) − (carries adding k and m−k in base
    // p). A carry can leave every digit of m but the top one, except that
    // no split can start one inside m's trailing run of p−1 digits, which
    // is v_p(n) long.
    size_t legendre = 0;  // v_p(m!)
    size_t high_digits = 0;
    for (size_t q = m / p; q > 0; q /= p) {
      legendre += q;
      ++high_digits;
    }
    size_t trailing = 0;
    for (size_t rest = n; rest % p == 0; rest /= p) ++trailing;
    const size_t carries = high_digits > trailing ? high_digits - trailing : 0;
    MultiplyPower(row.common, static_cast<int64_t>(p), legendre - carries);
    MultiplyPower(first, static_cast<int64_t>(p), carries);
  }
  row.denominator = first * BigInt(static_cast<int64_t>(n));
  row.reduced.resize(n);
  row.reduced[0] = std::move(first);
  BigInt remainder;
  for (size_t k = 0; k < m; ++k) {
    BigInt::DivMod(row.reduced[k] * BigInt(static_cast<int64_t>(k + 1)),
                   BigInt(static_cast<int64_t>(m - k)), &row.reduced[k + 1],
                   &remainder);
    SHAPCQ_CHECK(remainder.IsZero());
  }
  return row;
}

void EngineArena::EnsureWeights(size_t n) {
  if (weights_.reduced.size() != n) weights_ = WeightRow::For(n);
}

bool EngineArena::Numerators(const std::vector<int>& leaves, size_t endo_count,
                             size_t global_free_endo, size_t num_threads,
                             const CancelToken* cancel,
                             std::vector<BigInt>* out,
                             std::vector<Rational>* values) {
  out->clear();
  if (values != nullptr) values->clear();
  if (leaves.empty()) return true;
  if (cancel != nullptr && cancel->Expired()) return false;
  SHAPCQ_CHECK(endo_count >= 1);
  EnsureTopo();

  // Mark the leaves' root paths. A marked node's ancestors are marked
  // already, so climbing stops there.
  std::vector<uint8_t> on_path(kind_.size(), 0);
  for (int leaf : leaves) {
    SHAPCQ_CHECK(kind(leaf) == NodeKind::kGround);
    for (int node = leaf; node >= 0 && on_path[node] == 0;
         node = parent_[node]) {
      on_path[node] = 1;
    }
  }

  // Serial prepass, parents before children: lay each marked node's r out
  // in one call-local buffer at its exact length (universes add under
  // convolution, and a context spans the parent's universe minus the
  // child's) and group the nodes by depth.
  struct Span {
    size_t offset = 0;
    size_t len = 0;
  };
  std::vector<Span> r_span(kind_.size());
  std::vector<std::vector<int32_t>> levels;
  size_t r_cells = 0;
  size_t max_universe = global_free_endo;
  for (int32_t node : topo_) {
    if (on_path[node] == 0) continue;
    size_t len = global_free_endo + 1;
    if (node != root_) {
      const int32_t p = parent_[node];
      len = r_span[p].len + SlotLen(sat_slot_[p]) - SlotLen(sat_slot_[node]);
      max_universe = std::max(max_universe, SlotLen(sat_slot_[node]) - 1);
    }
    r_span[node] = {r_cells, len};
    r_cells += len;
    const size_t d = static_cast<size_t>(depth_[node]);
    if (levels.size() <= d) levels.resize(d + 1);
    levels[d].push_back(node);
  }
  std::vector<BigInt> r(r_cells);

  // The per-node fill: r[root] = All(global_free_endo), and r[child] =
  // r[parent] ⊛ ctx convolved straight into the child's span. It writes
  // only that span and reads only the parent's — finished one level
  // earlier — and the sat and product slots, which the sweep never writes.
  auto fill = [&](int32_t node) {
    BigInt* dst = r.data() + r_span[node].offset;
    if (node == root_) {
      std::vector<BigInt> row = Combinatorics::BinomialRow(global_free_endo);
      std::move(row.begin(), row.end(), dst);
      return;
    }
    const int32_t p = parent_[node];
    const std::vector<BigInt> ctx = ContextOf(p, child_index(node));
    SHAPCQ_CHECK(r_span[p].len + ctx.size() - 1 == r_span[node].len);
    ConvolveCounts(r.data() + r_span[p].offset, r_span[p].len, ctx.data(),
                   ctx.size(), dst);
  };

  // One thread fills each level inline on the caller; more hand the same
  // fill to a pool, with the ParallelFor join as the happens-before edge
  // between levels. Either way each cell is written once by the same
  // exact-integer formula, so values are bit-identical at every count.
  const size_t threads = ThreadPool::ResolveThreadCount(num_threads);
  std::optional<ThreadPool> pool;
  if (threads > 1) {
    Combinatorics::Prewarm(max_universe);
    pool.emplace(threads);
  }
  for (const std::vector<int32_t>& level : levels) {
    if (cancel != nullptr && cancel->Expired()) return false;
    if (pool.has_value()) {
      pool->ParallelFor(level.size(), [&](size_t i) { fill(level[i]); });
    } else {
      for (int32_t node : level) fill(node);
    }
  }

  // S = Σ_k (w_k/G)·r_k per leaf over the n = endo_count players (r spans
  // the universe of the other n − 1, exactly like the two propagated vectors
  // ShapleyFromSatCounts subtracts), negated for negated leaves; G·S is the
  // numerator over n!, and S over D = n!/G the same value.
  EnsureWeights(endo_count);
  out->reserve(leaves.size());
  if (values != nullptr) values->reserve(leaves.size());
  for (int leaf : leaves) {
    if (cancel != nullptr && cancel->Expired()) return false;
    SHAPCQ_CHECK(r_span[leaf].len == endo_count);
    const BigInt* r_leaf = r.data() + r_span[leaf].offset;
    BigInt sum(0);
    for (size_t k = 0; k < endo_count; ++k) {
      if (!r_leaf[k].IsZero()) sum.AddProductOf(weights_.reduced[k], r_leaf[k]);
    }
    if (negated_[leaf] != 0) sum = -sum;
    out->push_back(sum * weights_.common);
    if (values != nullptr) {
      values->emplace_back(std::move(sum), weights_.denominator);
    }
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
            sat_slot_.capacity() + product_slot_.capacity()) *
           sizeof(int32_t);
  bytes += zero_count_.capacity() * sizeof(uint32_t);
  const std::vector<BigInt>& row = weights_.reduced;
  bytes += (row.capacity() - row.size()) * sizeof(BigInt);
  for (const BigInt& weight : row) bytes += weight.ApproxMemoryBytes();
  bytes += weights_.common.ApproxMemoryBytes() - sizeof(BigInt);
  bytes += weights_.denominator.ApproxMemoryBytes() - sizeof(BigInt);
  return bytes;
}

void EngineArena::CompactCells() {
  // Every slot is one node's sat or product, allocated as the node was
  // appended, so slot-id order is node order.
  size_t total = 0;
  for (const Slot& slot : slots_) total += slot.len;
  std::vector<BigInt> packed;
  packed.reserve(total);
  for (Slot& slot : slots_) {
    const auto first = cells_.begin() + slot.offset;
    slot.offset = static_cast<uint32_t>(packed.size());
    slot.cap = slot.len;
    packed.insert(packed.end(), std::make_move_iterator(first),
                  std::make_move_iterator(first + slot.len));
  }
  cells_ = std::move(packed);
  slack_cells_ = 0;
  CompactChildren();
}

void EngineArena::CompactChildren() {
  std::vector<int32_t> packed;
  packed.reserve(children_.size() - stranded_children_);
  for (size_t node = 0; node < kind_.size(); ++node) {
    if (child_count_[node] == 0) continue;
    const auto first = children_.begin() + child_first_[node];
    child_first_[node] = static_cast<int32_t>(packed.size());
    packed.insert(packed.end(), first, first + child_count_[node]);
  }
  children_ = std::move(packed);
  stranded_children_ = 0;
}

void EngineArena::CheckInvariants() const {
  const size_t n = kind_.size();
  SHAPCQ_CHECK(parent_.size() == n && child_index_.size() == n &&
               child_first_.size() == n && child_count_.size() == n &&
               negated_.size() == n && depth_.size() == n &&
               sat_slot_.size() == n && product_slot_.size() == n &&
               zero_count_.size() == n);
  if (n == 0) return;
  SHAPCQ_CHECK(root_ >= 0 && static_cast<size_t>(root_) < n);
  SHAPCQ_CHECK(parent_[root_] == -1);
  size_t live_children = 0;
  std::vector<uint8_t> owned(slots_.size(), 0);  // each slot has one owner
  for (size_t node = 0; node < n; ++node) {
    const int32_t m = child_count_[node];
    live_children += static_cast<size_t>(m);
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
    const bool ground = kind(static_cast<int>(node)) == NodeKind::kGround;
    SHAPCQ_CHECK((product_slot_[node] >= 0) == !ground);
    SHAPCQ_CHECK(!ground || m == 0);
    SHAPCQ_CHECK(zero_count_[node] <= static_cast<uint32_t>(m));
    for (int32_t slot : {sat_slot_[node], product_slot_[node]}) {
      if (slot < 0) continue;
      SHAPCQ_CHECK(static_cast<size_t>(slot) < slots_.size() && !owned[slot]);
      owned[slot] = 1;
    }
  }
  SHAPCQ_CHECK(live_children + stranded_children_ == children_.size());
  // Every cell lies in exactly one live slot's range or is slack.
  std::vector<std::pair<size_t, size_t>> ranges;  // (offset, cap)
  size_t live_cells = 0;
  for (size_t id = 0; id < slots_.size(); ++id) {
    const Slot& slot = slots_[id];
    SHAPCQ_CHECK(owned[id] && slot.len <= slot.cap);
    SHAPCQ_CHECK(static_cast<size_t>(slot.offset) + slot.cap <= cells_.size());
    ranges.emplace_back(slot.offset, slot.cap);
    live_cells += slot.cap;
  }
  SHAPCQ_CHECK(live_cells + slack_cells_ == cells_.size());
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); ++i) {
    SHAPCQ_CHECK(ranges[i - 1].first + ranges[i - 1].second <=
                 ranges[i].first);
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
