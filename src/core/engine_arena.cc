#include "core/engine_arena.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "core/count_sat.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/combinatorics.h"
#include "util/limb_arith.h"
#include "util/thread_pool.h"

namespace shapcq {

namespace {

using Limb = limb::Limb;

// Limbs per cell of a vector of `len` cells. Cell k of a sat, product or
// context vector counts k-subsets of len − 1 facts, and cell j of an r
// vector j-subsets of len − 1 players, so each is below 2^len.
constexpr size_t WidthOf(size_t len) { return (len + 63) / 64; }

size_t LimbsOf(size_t len) { return len * WidthOf(len); }

bool IsZeroCells(const Limb* a, size_t len) {
  return std::all_of(a, a + LimbsOf(len), [](Limb x) { return x == 0; });
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

// Writes `value` into a cell of `width` limbs, zero-padded.
void StoreCell(const BigInt& value, Limb* cell, size_t width) {
  const BigInt::Magnitude m = value.magnitude();
  SHAPCQ_CHECK(value.sign() >= 0 && m.size <= width);
  std::copy(m.limbs, m.limbs + m.size, cell);
  std::fill(cell + m.size, cell + width, 0);
}

// acc[0..w) += a[0..na) · b[0..nb), with na and nb significant limbs; the
// sum must fit w limbs, which every count below guarantees (each product
// and partial sum is at most the count it builds). One MulAddRow per limb
// of the narrower operand.
void AddProduct(Limb* acc, size_t w, const Limb* a, size_t na, const Limb* b,
                size_t nb) {
  if (na == 1 && nb == 1) {
    Limb hi = 0;
    Limb lo = 0;
    limb::MulWide(a[0], b[0], &hi, &lo);
    Limb carry = 0;
    acc[0] = limb::AddCarry(acc[0], lo, &carry);
    if (w == 1) {
      SHAPCQ_CHECK(hi == 0 && carry == 0);
      return;
    }
    acc[1] = limb::AddCarry(acc[1], hi, &carry);
    SHAPCQ_CHECK(limb::PropagateCarry(acc + 2, w - 2, carry) == 0);
    return;
  }
  if (na < nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  SHAPCQ_CHECK(na + nb <= w + 1);
  for (size_t i = 0; i < nb; ++i) {
    if (b[i] == 0) continue;
    const size_t n = std::min(na, w - i);
    const Limb carry = limb::MulAddRow(acc + i, a, n, b[i]);
    SHAPCQ_CHECK(limb::PropagateCarry(acc + i + n, w - i - n, carry) == 0);
  }
}

// The arena's three kernels on fixed-width cells. Each output has
// ⌈len/64⌉ limbs per cell for its own len and must not overlap an input.

// out = a ⊛ b (a_len + b_len − 1 cells). Outer loop over the shorter
// vector's nonzero cells, trimmed once; inner loop over the longer one.
void ConvolveInto(const Limb* a, size_t a_len, const Limb* b, size_t b_len,
                  Limb* out) {
  SHAPCQ_CHECK(a_len > 0 && b_len > 0);
  if (a_len < b_len) {
    std::swap(a, b);
    std::swap(a_len, b_len);
  }
  const size_t wa = WidthOf(a_len);
  const size_t wb = WidthOf(b_len);
  const size_t len = a_len + b_len - 1;
  const size_t w = WidthOf(len);
  std::fill(out, out + len * w, 0);
  std::vector<size_t> nb(b_len);
  for (size_t j = 0; j < b_len; ++j) {
    nb[j] = limb::SignificantLimbs(b + j * wb, wb);
  }
  for (size_t j = 0; j < b_len; ++j) {
    if (nb[j] == 0) continue;
    const Limb* bj = b + j * wb;
    Limb* row = out + j * w;
    if (nb[j] == 1) {
      // A one-limb multiplier, the common case: one MulAddRow over each
      // a cell's full width (w >= wa), its carry rippling into the rest.
      for (size_t i = 0; i < a_len; ++i) {
        Limb* acc = row + i * w;
        const Limb carry = limb::MulAddRow(acc, a + i * wa, wa, bj[0]);
        SHAPCQ_CHECK(limb::PropagateCarry(acc + wa, w - wa, carry) == 0);
      }
      continue;
    }
    for (size_t i = 0; i < a_len; ++i) {
      const Limb* ai = a + i * wa;
      const size_t na = limb::SignificantLimbs(ai, wa);
      if (na != 0) AddProduct(row + i * w, w, ai, na, bj, nb[j]);
    }
  }
}

// out = C(n, ·), n = len − 1, from the cached Pascal row (rows up to
// Combinatorics::kMaxCachedRow wide are memoized).
void BinomialInto(size_t len, Limb* out) {
  const std::vector<BigInt> row = Combinatorics::BinomialRow(len - 1);
  const size_t w = WidthOf(len);
  for (size_t k = 0; k < len; ++k) StoreCell(row[k], out + k * w, w);
}

// out = All − a: C(n, k) − a_k over the universe n = len − 1.
void ComplementInto(const Limb* a, size_t len, Limb* out) {
  BinomialInto(len, out);
  SHAPCQ_CHECK(limb::SubRow(out, a, LimbsOf(len)) == 0);
}

// Exact quotient q = p / d of two count vectors, d nonzero and dividing p
// (p_len − d_len + 1 cells). Solved from d's lowest nonzero cell d_s
// upwards: p_{k+s} = q_k·d_s + Σ_{i<k} q_i·d_{k+s−i} gives each q_k from the
// ones below it. d_s = 1 needs no division, a one-limb d_s one Div2By1 per
// limb, and only a wider d_s divides that one cell through BigInt. The
// cells no q_k is solved from (below s, and the top |d| − 1 − s) are checked
// against q ⊛ d, as is every remainder. O(|p|·|d|).
void DivideInto(const Limb* p, size_t p_len, const Limb* d, size_t d_len,
                Limb* q) {
  const size_t wp = WidthOf(p_len);
  const size_t wd = WidthOf(d_len);
  size_t s = 0;
  while (s < d_len && limb::SignificantLimbs(d + s * wd, wd) == 0) ++s;
  SHAPCQ_CHECK(s < d_len && d_len <= p_len);
  const size_t q_len = p_len - d_len + 1;
  const size_t wq = WidthOf(q_len);
  const Limb* d_s = d + s * wd;
  const size_t nd_s = limb::SignificantLimbs(d_s, wd);
  // The nonzero cells d_t above d_s: the terms of each solved sum.
  struct Term {
    size_t t;
    const Limb* limbs;
    size_t n;
  };
  std::vector<Term> terms;
  for (size_t t = s + 1; t < d_len; ++t) {
    const size_t n = limb::SignificantLimbs(d + t * wd, wd);
    if (n != 0) terms.push_back({t, d + t * wd, n});
  }
  // The cell being solved: wp limbs on the stack unless p is very wide.
  Limb local[8] = {};
  std::vector<Limb> heap(wp > 8 ? wp : 0);
  Limb* cell = wp > 8 ? heap.data() : local;
  for (size_t m = 0; m < s; ++m) {
    SHAPCQ_CHECK(limb::SignificantLimbs(p + m * wp, wp) == 0);
  }
  for (size_t m = s; m < p_len; ++m) {
    const size_t k = m - s;
    // Σ q_i·d_{m−i} over the q_i already known: i = m − t for each term
    // with t ≤ m and m − t < q_len (t > s makes i < k).
    std::fill(cell, cell + wp, 0);
    for (const Term& term : terms) {
      if (term.t > m) break;
      const size_t i = m - term.t;
      if (i >= q_len) continue;
      const Limb* q_i = q + i * wq;
      const size_t nq_i = limb::SignificantLimbs(q_i, wq);
      if (nq_i != 0) AddProduct(cell, wp, q_i, nq_i, term.limbs, term.n);
    }
    const Limb* p_m = p + m * wp;
    if (k >= q_len) {
      SHAPCQ_CHECK(std::equal(cell, cell + wp, p_m));
      continue;
    }
    Limb borrow = 0;
    for (size_t i = 0; i < wp; ++i) {
      cell[i] = limb::SubBorrow(p_m[i], cell[i], &borrow);
    }
    SHAPCQ_CHECK(borrow == 0);
    Limb* q_k = q + k * wq;
    if (nd_s == 1) {
      if (d_s[0] != 1) {
        SHAPCQ_CHECK(limb::DivRowInPlace(cell, wp, d_s[0]) == 0);
      }
      SHAPCQ_CHECK(limb::SignificantLimbs(cell, wp) <= wq);
      std::copy(cell, cell + wq, q_k);
    } else {
      BigInt quotient;
      BigInt remainder;
      BigInt::DivMod(BigInt::FromLimbs(cell, wp),
                     BigInt::FromLimbs(d_s, nd_s), &quotient, &remainder);
      SHAPCQ_CHECK(remainder.IsZero());
      StoreCell(quotient, q_k, wq);
    }
  }
}

}  // namespace

EngineArena::Cells::Cells(size_t n) : len(n), limbs(LimbsOf(n), 0) {}

EngineArena::EngineArena() = default;

// ---------------------------------------------------------------------------
// Cell store
// ---------------------------------------------------------------------------

int EngineArena::NewSlot(const Cells& cells) {
  SHAPCQ_CHECK(limbs_.size() + cells.limbs.size() <=
               std::numeric_limits<uint32_t>::max());
  Slot slot;
  slot.offset = static_cast<uint32_t>(limbs_.size());
  slot.len = static_cast<uint32_t>(cells.len);
  slot.cap = static_cast<uint32_t>(cells.limbs.size());
  limbs_.insert(limbs_.end(), cells.limbs.begin(), cells.limbs.end());
  slots_.push_back(slot);
  return static_cast<int>(slots_.size()) - 1;
}

void EngineArena::StoreSlotAt(int32_t slot_id, const Cells& cells) {
  SHAPCQ_CHECK(cells.len > 0);
  Slot& slot = slots_[slot_id];
  const size_t need = cells.limbs.size();
  if (need > slot.cap) {
    // Out of place: the old range is stranded until the next compaction.
    SHAPCQ_CHECK(limbs_.size() + need <= std::numeric_limits<uint32_t>::max());
    slack_limbs_ += slot.cap;
    slot.offset = static_cast<uint32_t>(limbs_.size());
    slot.cap = static_cast<uint32_t>(need);
    limbs_.resize(limbs_.size() + need);
  }
  slot.len = static_cast<uint32_t>(cells.len);
  std::copy(cells.limbs.begin(), cells.limbs.end(),
            limbs_.begin() + slot.offset);
  // Each compaction is paid for by the stranded limbs since the last one.
  if (2 * slack_limbs_ > limbs_.size()) CompactCells();
}

EngineArena::Cells EngineArena::CellsOf(int32_t slot_id) const {
  const CellSpan span = SlotSpan(slot_id);
  Cells cells;
  cells.len = span.len;
  cells.limbs.assign(span.limbs, span.limbs + LimbsOf(span.len));
  return cells;
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

int EngineArena::AddGround(bool negated, GroundFactState state) {
  const int node = AppendNode(NodeKind::kGround, {}, negated);
  sat_slot_[node] = NewSlot(LeafSat(negated, state));
  return node;
}

int EngineArena::AddInner(NodeKind kind, const std::vector<int>& children) {
  SHAPCQ_CHECK(kind != NodeKind::kGround);
  const int node = AppendNode(kind, children, false);
  Cells product(1);  // the empty product
  product.limbs[0] = 1;
  Cells scratch;
  size_t universe = 0;
  for (size_t j = 0; j < children.size(); ++j) {
    const CellSpan combine = CombineOf(node, j, &scratch);
    universe += combine.len - 1;
    MultiplyIn(product, zero_count_[node], combine);
  }
  product_slot_[node] = NewSlot(product);
  sat_slot_[node] = NewSlot(SatFromProduct(node, universe));
  return node;
}

void EngineArena::SetRoot(int root) {
  SHAPCQ_CHECK(root >= 0 && static_cast<size_t>(root) < kind_.size());
  root_ = root;
  // Build appended every slot: drop the buffer's growth slack.
  limbs_.shrink_to_fit();
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

CountVector EngineArena::ToCountVector(CellSpan cells) {
  const size_t w = WidthOf(cells.len);
  std::vector<BigInt> counts;
  counts.reserve(cells.len);
  for (size_t k = 0; k < cells.len; ++k) {
    counts.push_back(BigInt::FromLimbs(cells.limbs + k * w, w));
  }
  return CountVector::FromCounts(std::move(counts));
}

CountVector EngineArena::SatOf(int node) const {
  return ToCountVector(SlotSpan(sat_slot_[node]));
}

CountVector EngineArena::BaselineSat(size_t global_free_endo) const {
  const CellSpan sat = SlotSpan(sat_slot_[root_]);
  Cells all(global_free_endo + 1);
  BinomialInto(all.len, all.limbs.data());
  Cells baseline(sat.len + global_free_endo);
  ConvolveInto(sat.limbs, sat.len, all.limbs.data(), all.len,
               baseline.limbs.data());
  return ToCountVector(baseline.span());
}

int EngineArena::EfficiencyTotal() const {
  // Both end cells count at most one subset (the empty one, and Dn).
  const CellSpan sat = SlotSpan(sat_slot_[root_]);
  const size_t w = WidthOf(sat.len);
  const Limb* none_present = sat.limbs;
  const Limb* all_present = sat.limbs + (sat.len - 1) * w;
  SHAPCQ_CHECK(limb::SignificantLimbs(none_present, w) <= 1 &&
               limb::SignificantLimbs(all_present, w) <= 1 &&
               none_present[0] <= 1 && all_present[0] <= 1);
  return static_cast<int>(all_present[0]) - static_cast<int>(none_present[0]);
}

// ---------------------------------------------------------------------------
// The combine rules
// ---------------------------------------------------------------------------

EngineArena::CellSpan EngineArena::CombineOf(int parent, size_t j,
                                             Limb* scratch) const {
  const CellSpan sat = SlotSpan(sat_slot_[child(parent, j)]);
  if (kind(parent) != NodeKind::kRootVar) return sat;
  ComplementInto(sat.limbs, sat.len, scratch);
  return {scratch, sat.len};
}

EngineArena::CellSpan EngineArena::CombineOf(int parent, size_t j,
                                             Cells* scratch) const {
  if (kind(parent) == NodeKind::kRootVar) {
    *scratch = Cells(SlotLen(sat_slot_[child(parent, j)]));
  }
  return CombineOf(parent, j, scratch->limbs.data());
}

size_t EngineArena::ContextInto(int parent, size_t j, Limb* scratch,
                                Limb* out) const {
  const CellSpan combine = CombineOf(parent, j, scratch);
  const CellSpan product = SlotSpan(product_slot_[parent]);
  const size_t len = SlotLen(sat_slot_[parent]) - combine.len + 1;
  const uint32_t zeros = zero_count_[parent];
  if (zeros == 0) {
    DivideInto(product.limbs, product.len, combine.limbs, combine.len, out);
  } else if (zeros == 1 && IsZeroCells(combine.limbs, combine.len)) {
    SHAPCQ_CHECK(product.len == len);
    std::copy(product.limbs, product.limbs + LimbsOf(len), out);
  } else {
    // A zero sibling: the context is 0 over the parent's universe minus j's.
    std::fill(out, out + LimbsOf(len), 0);
  }
  return len;
}

EngineArena::Cells EngineArena::SatFromProduct(int node,
                                               size_t universe) const {
  const bool zero = zero_count_[node] > 0;
  const CellSpan product = SlotSpan(product_slot_[node]);
  if (!zero) SHAPCQ_CHECK(product.len == universe + 1);
  if (kind(node) == NodeKind::kComponent) {
    return zero ? Cells(universe + 1) : CellsOf(product_slot_[node]);
  }
  Cells sat(universe + 1);
  SHAPCQ_CHECK(kind(node) == NodeKind::kRootVar);
  if (zero) {
    BinomialInto(sat.len, sat.limbs.data());
  } else {
    ComplementInto(product.limbs, product.len, sat.limbs.data());
  }
  return sat;
}

void EngineArena::MultiplyIn(Cells& product, uint32_t& zero_count,
                             CellSpan combine) {
  if (IsZeroCells(combine.limbs, combine.len)) {
    ++zero_count;
    return;
  }
  Cells out(product.len + combine.len - 1);
  ConvolveInto(product.limbs.data(), product.len, combine.limbs, combine.len,
               out.limbs.data());
  product = std::move(out);
}

EngineArena::Cells EngineArena::LeafSat(bool negated, GroundFactState state) {
  // Lemma 3.2 with the negation extension: a positive ground atom must be
  // present (a forced pick if endogenous, free if exogenous, impossible if
  // absent); a negative one must be absent (the mirror image).
  if (state == GroundFactState::kEndogenous) {
    Cells sat(2);
    sat.limbs[negated ? 0 : 1] = 1;
    return sat;
  }
  Cells sat(1);
  sat.limbs[0] = (state == GroundFactState::kExogenous) != negated ? 1 : 0;
  return sat;
}

void EngineArena::StoreSatUpward(int node, Cells sat) {
  Cells scratch;
  for (int parent = parent_[node]; parent >= 0;
       node = parent, parent = parent_[node]) {
    const size_t j = child_index(node);
    // The child's old combine vector leaves the product before its sat is
    // overwritten.
    const CellSpan old_combine = CombineOf(parent, j, &scratch);
    const size_t universe =
        SlotLen(sat_slot_[parent]) - old_combine.len + sat.len - 1;
    Cells product;
    if (IsZeroCells(old_combine.limbs, old_combine.len)) {
      SHAPCQ_CHECK(zero_count_[parent] > 0);
      --zero_count_[parent];
      product = CellsOf(product_slot_[parent]);
    } else {
      const CellSpan stored = SlotSpan(product_slot_[parent]);
      product = Cells(stored.len - old_combine.len + 1);
      DivideInto(stored.limbs, stored.len, old_combine.limbs,
                 old_combine.len, product.limbs.data());
    }
    StoreSlotAt(sat_slot_[node], sat);
    MultiplyIn(product, zero_count_[parent], CombineOf(parent, j, &scratch));
    StoreSlotAt(product_slot_[parent], product);
    sat = SatFromProduct(parent, universe);
  }
  StoreSlotAt(sat_slot_[node], sat);
}

// ---------------------------------------------------------------------------
// Mutation patches
// ---------------------------------------------------------------------------

void EngineArena::SetLeafSat(int leaf, GroundFactState state) {
  SHAPCQ_CHECK(kind(leaf) == NodeKind::kGround);
  StoreSatUpward(leaf, LeafSat(negated(leaf), state));
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

  Cells scratch;
  const CellSpan combine = CombineOf(parent, m, &scratch);
  const size_t universe = SlotLen(sat_slot_[parent]) + combine.len - 2;
  Cells product = CellsOf(product_slot_[parent]);
  MultiplyIn(product, zero_count_[parent], combine);
  StoreSlotAt(product_slot_[parent], product);
  StoreSatUpward(parent, SatFromProduct(parent, universe));
}

// ---------------------------------------------------------------------------
// Evaluation: the difference-propagation sweep
// ---------------------------------------------------------------------------

WeightRow WeightRow::For(size_t n) {
  SHAPCQ_CHECK(n >= 1);
  const size_t m = n - 1;  // w_k = k!(m−k)!
  WeightRow row;
  row.n = n;
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
  // w_k/G falls as k climbs to the middle, so w_0/G sets the width.
  row.width = std::max<size_t>(1, first.magnitude().size);
  const size_t half = m / 2 + 1;  // k = 0..⌊m/2⌋
  row.reduced.resize(half * row.width);
  BigInt weight = std::move(first);
  BigInt remainder;
  for (size_t k = 0;; ++k) {
    StoreCell(weight, row.reduced.data() + k * row.width, row.width);
    if (k + 1 == half) break;
    BigInt::DivMod(weight * BigInt(static_cast<int64_t>(k + 1)),
                   BigInt(static_cast<int64_t>(m - k)), &weight, &remainder);
    SHAPCQ_CHECK(remainder.IsZero());
  }
  return row;
}

BigInt WeightRow::Reduced(size_t k) const {
  SHAPCQ_CHECK(k < n);
  const size_t mirrored = std::min(k, n - 1 - k);
  return BigInt::FromLimbs(reduced.data() + mirrored * width, width);
}

void EngineArena::EnsureWeights(size_t n) {
  if (weights_.n != n) weights_ = WeightRow::For(n);
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
  // in one call-local limb buffer at its exact length (universes add under
  // convolution, and a context spans the parent's universe minus the
  // child's), give it room in a second one for its combine vector (under a
  // root-var parent) and its context (when r[parent] has more than one
  // cell), and group the nodes by depth.
  struct Layout {
    size_t r_offset = 0;
    size_t r_len = 0;
    size_t combine_offset = 0;
    size_t ctx_offset = 0;
  };
  std::vector<Layout> layout(kind_.size());
  std::vector<std::vector<int32_t>> levels;
  size_t r_limbs = 0;
  size_t scratch_limbs = 0;
  size_t max_universe = global_free_endo;
  for (int32_t node : topo_) {
    if (on_path[node] == 0) continue;
    Layout& at = layout[node];
    at.r_len = global_free_endo + 1;
    if (node != root_) {
      const int32_t p = parent_[node];
      const size_t sat_len = SlotLen(sat_slot_[node]);
      at.r_len = layout[p].r_len + SlotLen(sat_slot_[p]) - sat_len;
      max_universe = std::max(max_universe, sat_len - 1);
      if (kind(p) == NodeKind::kRootVar) {
        at.combine_offset = scratch_limbs;
        scratch_limbs += LimbsOf(sat_len);
      }
      if (layout[p].r_len > 1) {
        at.ctx_offset = scratch_limbs;
        scratch_limbs += LimbsOf(at.r_len - layout[p].r_len + 1);
      }
    }
    at.r_offset = r_limbs;
    r_limbs += LimbsOf(at.r_len);
    const size_t d = static_cast<size_t>(depth_[node]);
    if (levels.size() <= d) levels.resize(d + 1);
    levels[d].push_back(node);
  }
  std::vector<Limb> r(r_limbs);
  std::vector<Limb> scratch(scratch_limbs);

  // The per-node fill: r[root] = All(global_free_endo), and r[child] =
  // r[parent] ⊛ ctx convolved straight into the child's span. It writes
  // only the node's own spans and reads only its parent's r — finished one
  // level earlier — and the sat and product slots, which the sweep never
  // writes.
  auto fill = [&](int32_t node) {
    const Layout& at = layout[node];
    Limb* dst = r.data() + at.r_offset;
    if (node == root_) {
      BinomialInto(at.r_len, dst);
      return;
    }
    const Layout& up = layout[parent_[node]];
    const Limb* r_parent = r.data() + up.r_offset;
    Limb* combine = scratch.data() + at.combine_offset;
    if (up.r_len == 1) {
      // A one-cell r counts subsets of no player: it is [0] or [1], and r
      // is the context itself or zero.
      if (r_parent[0] != 0) {
        SHAPCQ_CHECK(ContextInto(parent_[node], child_index(node), combine,
                                 dst) == at.r_len);
      }
      return;
    }
    Limb* ctx = scratch.data() + at.ctx_offset;
    const size_t ctx_len =
        ContextInto(parent_[node], child_index(node), combine, ctx);
    SHAPCQ_CHECK(up.r_len + ctx_len - 1 == at.r_len);
    ConvolveInto(r_parent, up.r_len, ctx, ctx_len, dst);
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
  // numerator over n!, and S over D = n!/G the same value. The weights are
  // a palindrome, so r_k + r_{n−1−k} (at most 2·C(n − 1, k) ≤ 2^(n−1))
  // takes one multiply, and S ≤ Σ_k (w_k/G)·C(n − 1, k) = n·(n − 1)!/G = D
  // fits D's limbs.
  EnsureWeights(endo_count);
  const size_t n = endo_count;
  const size_t w = WidthOf(n);
  const size_t sum_width = weights_.denominator.magnitude().size;
  std::vector<Limb> sum(sum_width);
  std::vector<Limb> pair(w);
  out->reserve(leaves.size());
  if (values != nullptr) values->reserve(leaves.size());
  for (int leaf : leaves) {
    if (cancel != nullptr && cancel->Expired()) return false;
    SHAPCQ_CHECK(layout[leaf].r_len == n);
    const Limb* r_leaf = r.data() + layout[leaf].r_offset;
    std::fill(sum.begin(), sum.end(), 0);
    for (size_t k = 0; 2 * k < n; ++k) {
      const Limb* r_k = r_leaf + k * w;
      const Limb* summed = r_k;
      if (2 * k + 1 < n) {
        std::copy(r_k, r_k + w, pair.begin());
        SHAPCQ_CHECK(limb::AddRow(pair.data(), r_leaf + (n - 1 - k) * w, w) ==
                     0);
        summed = pair.data();
      }
      const size_t ns = limb::SignificantLimbs(summed, w);
      if (ns == 0) continue;
      const Limb* weight = weights_.reduced.data() + k * weights_.width;
      AddProduct(sum.data(), sum_width, weight,
                 limb::SignificantLimbs(weight, weights_.width), summed, ns);
    }
    BigInt numerator = BigInt::FromLimbs(sum.data(), sum_width);
    if (negated_[leaf] != 0) numerator = -numerator;
    out->push_back(numerator * weights_.common);
    if (values != nullptr) {
      values->emplace_back(std::move(numerator), weights_.denominator);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Accounting, compaction, invariants
// ---------------------------------------------------------------------------

size_t EngineArena::ApproxMemoryBytes() const {
  size_t bytes = sizeof(EngineArena);
  bytes += limbs_.capacity() * sizeof(Limb);
  bytes += slots_.capacity() * sizeof(Slot);
  bytes += kind_.capacity() * sizeof(uint8_t);
  bytes += negated_.capacity() * sizeof(uint8_t);
  bytes += (parent_.capacity() + child_index_.capacity() +
            child_first_.capacity() + child_count_.capacity() +
            children_.capacity() + topo_.capacity() + depth_.capacity() +
            sat_slot_.capacity() + product_slot_.capacity()) *
           sizeof(int32_t);
  bytes += zero_count_.capacity() * sizeof(uint32_t);
  bytes += weights_.reduced.capacity() * sizeof(Limb);
  bytes += weights_.common.ApproxMemoryBytes() - sizeof(BigInt);
  bytes += weights_.denominator.ApproxMemoryBytes() - sizeof(BigInt);
  return bytes;
}

void EngineArena::CompactCells() {
  // Every slot is one node's sat or product, allocated as the node was
  // appended, so slot-id order is node order.
  size_t total = 0;
  for (const Slot& slot : slots_) total += LimbsOf(slot.len);
  std::vector<Limb> packed;
  packed.reserve(total);
  for (Slot& slot : slots_) {
    const auto first = limbs_.begin() + slot.offset;
    slot.offset = static_cast<uint32_t>(packed.size());
    slot.cap = static_cast<uint32_t>(LimbsOf(slot.len));
    packed.insert(packed.end(), first, first + slot.cap);
  }
  limbs_ = std::move(packed);
  slack_limbs_ = 0;
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
  // Every limb lies in exactly one live slot's range or is slack.
  std::vector<std::pair<size_t, size_t>> ranges;  // (offset, cap)
  size_t live_limbs = 0;
  for (size_t id = 0; id < slots_.size(); ++id) {
    const Slot& slot = slots_[id];
    SHAPCQ_CHECK(owned[id] && slot.len > 0 && LimbsOf(slot.len) <= slot.cap);
    SHAPCQ_CHECK(static_cast<size_t>(slot.offset) + slot.cap <= limbs_.size());
    ranges.emplace_back(slot.offset, slot.cap);
    live_limbs += slot.cap;
  }
  SHAPCQ_CHECK(live_limbs + slack_limbs_ == limbs_.size());
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
