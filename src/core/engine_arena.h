// Flat structure-of-arrays arena: the numeric core of ShapleyEngine.
//
// Every node of the CntSat recursion (Lemma 3.2: ground leaves, component
// nodes, root-variable nodes) lives here, and nowhere else numerically:
//
//  * Node structure lives in index-linked parallel arrays (kind, parent,
//    child ranges into one concatenated child-id array, leaf polarity) — no
//    per-node objects, no virtual dispatch.
//  * Every count-vector cell lives in ONE flat buffer of 64-bit limbs. A
//    vector of len cells is a slot {offset, len, cap} into that buffer, and
//    each of its cells takes width = ⌈len/64⌉ limbs: cell k counts k-subsets
//    of at most len − 1 facts, so it is at most C(len − 1, k) < 2^len, and
//    the width is fixed the moment the slot is made. A bottom-up sweep thus
//    walks contiguous fixed-width cells with no per-cell header or heap
//    spill. Replacing a vector reuses its range in place when its len·width
//    limbs fit the slot's capacity and appends a fresh range otherwise (so
//    a store whose length crosses a multiple of 64 moves, as a longer one
//    does); CompactCells() packs the buffer once stranded limbs outnumber
//    live ones (likewise relocated child ids).
//  * Three fixed-width kernels do all the counting: convolution, the
//    complement against the cached Pascal row C(u, ·), and exact division.
//    BigInt enters only where a value leaves the arena (SatOf, the
//    numerators and values of Numerators) and in the rare division by a
//    cell wider than one limb.
//  * ShapleyEngine::Build appends each node the moment its recursion step
//    finishes, children before parents, and the node's |Sat| cells are
//    written straight into the buffer. A ground leaf's one or two cells come
//    from its polarity and presence state (the Lemma 3.2 base case, kept
//    here rather than shared with the CntSat oracle). Each inner node
//    combines its children's combine vectors — child sat under a component,
//    All − child sat under a root-variable node — and stores their product,
//    leaving out the all-zero ones, which it only counts. The combine rules
//    are implemented once, below, and shared by Build and every mutation
//    patch:
//
//      component:  sat = Π child sat                (0 if a factor is zero)
//      root var:   sat = All − Π (All − child sat)  (All if a factor is zero)
//
//  * A topological order (parents before children) turns the all-facts
//    evaluation into a batched top-down sweep over dense index ranges.
//
// The evaluation sweep exploits that forcing one fact exogenous versus
// removing it perturbs the recursion LINEARLY along the fact's leaf-to-root
// path: at a component ancestor the difference vector picks up a
// convolution with the sibling context, and at a root-var ancestor the two
// complement steps cancel, leaving the same convolution. Hence
//
//   sat_with - sat_without  =  sign * r[leaf],
//   r[root]  = All(global_free_endo),
//   r[child] = r[parent] * ctx_parent[child],
//
// with sign = -1 exactly for negated leaves, and Shapley(leaf) assembles
// from r[leaf] alone. r[] is shared across every leaf below a common
// ancestor. ctx_parent[j], the product of every sibling's combine vector, is
// the parent's stored product divided exactly by child j's combine vector;
// it is the product itself when j is the parent's only zero child, and 0
// when another child is zero.
//
// One call, Numerators, fills r along the requested leaves' paths level by
// level (inline at one thread, over a pool at more) in a limb buffer that
// dies with the call: the arena keeps no evaluation state between calls. An
// r cell j counts j-subsets of the len − 1 other players in r's universe,
// so ⌈len/64⌉ limbs hold it too.
//
// Incremental maintenance patches the same storage: a leaf store or a
// new-child splice walks the dirtied path to the root, dividing each
// child's old combine vector out of its parent's product and multiplying
// the new one in.
//
// The arena does NOT know about queries, routing or orbits: the owning
// ShapleyEngine keeps the routing metadata (each node's plan step, leaf
// state and slice map) under the same node ids and drives the arena
// through the calls below.

#ifndef SHAPCQ_CORE_ENGINE_ARENA_H_
#define SHAPCQ_CORE_ENGINE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bigint.h"
#include "util/count_vector.h"
#include "util/rational.h"

namespace shapcq {

class CancelToken;            // util/cancel.h
enum class GroundFactState;  // core/count_sat.h

/// The Shapley weight row of n players over its common factor. Every weight
/// w_k = k!(n−1−k)! (k = 0..n−1) shares G = gcd_k w_k, which depends on n
/// only and is most of each weight (994 of the largest weight's 1,284 bits
/// at n = 206), so Σ_k w_k·r_k / n! = S / D with S = Σ_k (w_k/G)·r_k and
/// D = n!/G (298 bits at n = 206, against n!'s 1,292).
struct WeightRow {
  /// Built with small-integer work only, no factorial product and no gcd:
  /// v_p(G) = min_k [v_p(k!) + v_p((n−1−k)!)] at each prime p < n, read off
  /// Legendre's formula (by Kummer's theorem the min falls short of
  /// v_p((n−1)!) by the most base-p carries two addends of n − 1 can make);
  /// w_0/G = (n−1)!/G as a product of prime powers; w_{k+1}/G =
  /// (w_k/G)·(k+1)/(n−1−k) by checked one-limb steps; D = n·(w_0/G).
  static WeightRow For(size_t n);

  /// w_k/G for any k < n.
  BigInt Reduced(size_t k) const;

  size_t n = 0;
  /// Limbs per weight: those of the largest, w_0/G.
  size_t width = 0;
  /// w_k/G for k = 0..⌊(n−1)/2⌋, `width` limbs each. The row is a
  /// palindrome (w_k = w_{n−1−k}), so the upper half is not stored.
  std::vector<BigInt::Limb> reduced;
  BigInt common;       // G
  BigInt denominator;  // D = n!/G
};

/// The CntSat recursion as flat arrays plus one cell buffer. See the file
/// comment for the layout, the combine rules and the difference-propagation
/// evaluation sweep.
class EngineArena {
 public:
  enum class NodeKind : uint8_t { kGround, kComponent, kRootVar };

  EngineArena();

  // -------------------------------------------------------------------------
  // Construction. Each Add* call appends one node (ids are dense, in call
  // order), links the given children under it and writes its |Sat| cells
  // (and, for inner nodes, the product of its children's nonzero combine
  // vectors) straight into the cell buffer, computed from the children's.
  // Children must be added before their parent; SetRoot fixes the root and
  // the topological order once the recursion returns. Mutations keep
  // appending: a fresh subtree is added the same way and attached by
  // SpliceNewChild (the topological order recomputes lazily).
  // -------------------------------------------------------------------------

  void Reserve(size_t node_count);
  /// A ground leaf of the given polarity over the (at most one) fact that
  /// matches it, in `state`.
  int AddGround(bool negated, GroundFactState state);
  /// A component node (sat = Π child sat) or a root-var node
  /// (sat = All − Π (All − child sat)) over already-added children.
  int AddInner(NodeKind kind, const std::vector<int>& children);
  void SetRoot(int root);

  size_t node_count() const { return kind_.size(); }
  int root() const { return root_; }

  // -------------------------------------------------------------------------
  // Reads.
  // -------------------------------------------------------------------------

  NodeKind kind(int node) const { return static_cast<NodeKind>(kind_[node]); }
  int parent(int node) const { return parent_[node]; }
  size_t child_index(int node) const {
    return static_cast<size_t>(child_index_[node]);
  }
  size_t child_count(int node) const {
    return static_cast<size_t>(child_count_[node]);
  }
  int child(int node, size_t j) const {
    return children_[child_first_[node] + static_cast<int32_t>(j)];
  }
  bool negated(int node) const { return negated_[node] != 0; }
  /// Every node, parents before children (root first); recomputed first if
  /// a splice left the order stale.
  const std::vector<int32_t>& TopoOrder() {
    EnsureTopo();
    return topo_;
  }

  /// Materializes the node's memoized |Sat| vector.
  CountVector SatOf(int node) const;

  /// |Sat| of the whole database: the root's sat ⊛ All(global_free_endo),
  /// identical to CountSat(q, db).
  CountVector BaselineSat(size_t global_free_endo) const;

  /// |Sat_n| − |Sat_0| = q(D) − q(Dx), the efficiency total every
  /// all-facts table sums to, read off the root's two end cells in O(1).
  /// The global free facts only widen the universe: All(g) is 1 at both
  /// ends, so BaselineSat's end cells are the root's.
  int EfficiencyTotal() const;

  // -------------------------------------------------------------------------
  // Mutation patches. Each re-derives every ancestor of the changed node
  // from the same combine rules Build used, walking the dirtied path to the
  // root: at each parent the child's old combine vector is divided out of
  // the stored product and the new one multiplied in.
  // -------------------------------------------------------------------------

  /// Re-derives a ground leaf's |Sat| after its presence state flipped.
  void SetLeafSat(int leaf, GroundFactState state);

  /// Attaches the freshly added subtree root `child` as the last child of
  /// the root-var node `parent` and multiplies its unsat factor into the
  /// parent's product — the new-slice splice of an insert.
  void SpliceNewChild(int parent, int child);

  // -------------------------------------------------------------------------
  // Evaluation.
  // -------------------------------------------------------------------------

  /// The evaluation call: n!·Shapley of the endogenous fact at each of
  /// `leaves` (n = endo_count), into `out` in the same order — the integer
  /// numerator Σ_k w_k·r_k of the paper's
  /// Σ_k k!(n−1−k)!/n! · (|Sat_k with f exogenous| − |Sat_k without f|)
  /// over the denominator n! that every value shares. One sweep lays r out
  /// for every node on the leaves' root paths in a call-local buffer and
  /// fills it level by level from the root, inline on the caller when
  /// num_threads <= 1 and over a worker pool otherwise (0 = hardware
  /// concurrency). Each leaf then assembles S = Σ_k (w_k/G)·r_k on limbs
  /// against the WeightRow of n, built once per n, adding r_k + r_{n−1−k}
  /// before one multiply by their shared weight, and hands out G·S; a
  /// non-null
  /// `values` also receives its Shapley value Rational(S, D), reduced by a
  /// gcd against D = n!/G instead of n!. Results are bit-identical at every
  /// thread count (each r cell is written once, by the same exact-integer
  /// formula). A non-null `cancel` token is polled before the sweep, between
  /// levels and before each leaf's assembly; returns false when it expired,
  /// with `out` and `values` unspecified. Nothing outlives the call, so a
  /// retry re-sweeps to the same integers.
  bool Numerators(const std::vector<int>& leaves, size_t endo_count,
                  size_t global_free_endo, size_t num_threads,
                  const CancelToken* cancel, std::vector<BigInt>* out,
                  std::vector<Rational>* values = nullptr);

  // -------------------------------------------------------------------------
  // Accounting and invariants.
  // -------------------------------------------------------------------------

  /// Heap footprint of the arena: a handful of buffer-capacity sums. After
  /// SetRoot the limb buffer's capacity equals its size. O(1).
  size_t ApproxMemoryBytes() const;

  /// Limbs stranded by out-of-place vector replacements.
  size_t SlackLimbs() const { return slack_limbs_; }

  /// Rewrites the limb buffer and the child-id array dense (every live slot
  /// and child list packed back to back, stranded entries dropped). Values
  /// are untouched. Slot stores run it once stranded limbs outnumber live
  /// ones.
  void CompactCells();

  /// Aborts (SHAPCQ_CHECK) unless the structural invariants hold: parallel
  /// arrays equal-sized, child ranges well-formed and mutually consistent
  /// with parent/child_index, topological order covering every node with
  /// parents before children, every live slot range inside the buffer with
  /// len·width <= cap, live ranges disjoint, the live caps plus SlackLimbs()
  /// accounting for every limb, and the live child lists plus the stranded
  /// ids accounting for every child id. Test hook; O(nodes + slots).
  void CheckInvariants() const;

 private:
  using Limb = BigInt::Limb;

  // offset and cap in limbs; len in cells of ⌈len/64⌉ limbs each.
  struct Slot {
    uint32_t offset = 0;
    uint32_t len = 0;
    uint32_t cap = 0;
  };
  // A count vector read in place: len cells of ⌈len/64⌉ limbs each.
  struct CellSpan {
    const Limb* limbs = nullptr;
    size_t len = 0;
  };
  // A count vector outside the buffer, in the same layout.
  struct Cells {
    size_t len = 0;
    std::vector<Limb> limbs;

    Cells() = default;
    explicit Cells(size_t n);  // n zero cells
    CellSpan span() const { return {limbs.data(), len}; }
  };

  // --- cell store ---
  int NewSlot(const Cells& cells);
  // Writes `cells` into the slot: in place whenever its limbs fit the
  // slot's capacity, out of place (stranding the old range) otherwise.
  void StoreSlotAt(int32_t slot, const Cells& cells);
  size_t SlotLen(int32_t slot) const { return slots_[slot].len; }
  // A copy of the slot's cells.
  Cells CellsOf(int32_t slot) const;
  CellSpan SlotSpan(int32_t slot) const {
    return {limbs_.data() + slots_[slot].offset, slots_[slot].len};
  }
  // The cells as BigInt counts (SatOf, BaselineSat).
  static CountVector ToCountVector(CellSpan cells);
  // Packs children_ dense (part of CompactCells; splices run it once
  // stranded ids outnumber live ones).
  void CompactChildren();

  // --- structure ---
  // Appends the node's SoA entries (no cells yet) and links `children`
  // under it.
  int AppendNode(NodeKind kind, const std::vector<int>& children,
                 bool negated);

  // --- the combine rules (used by Build, the patch path and the sweep) ---
  // A ground leaf's |Sat|: one or two one-limb cells.
  static Cells LeafSat(bool negated, GroundFactState state);
  // Multiplies a child's combine vector into its parent's running product,
  // or, when the vector is zero, counts it in `zero_count` instead.
  static void MultiplyIn(Cells& product, uint32_t& zero_count,
                         CellSpan combine);
  // Child j's combine vector: its sat slot for component parents; for
  // root-var parents its complement against All, written to `scratch`
  // (which holds the child's sat len·width limbs).
  CellSpan CombineOf(int parent, size_t j, Limb* scratch) const;
  CellSpan CombineOf(int parent, size_t j, Cells* scratch) const;
  // Child j's sibling context, the product of every other child's combine
  // vector, written to `out`; returns its length. `scratch` is CombineOf's.
  // Const, so the sweep's fill may run it on pool workers.
  size_t ContextInto(int parent, size_t j, Limb* scratch, Limb* out) const;
  // The inner node's sat over `universe` players, from its stored product
  // and zero count.
  Cells SatFromProduct(int node, size_t universe) const;
  // Stores `sat` as the node's |Sat| and re-derives every ancestor.
  void StoreSatUpward(int node, Cells sat);

  // --- evaluation (the sweep itself is Numerators) ---
  void EnsureTopo();
  void RecomputeTopo();
  // weights_ = WeightRow::For(n) unless it is that row already.
  void EnsureWeights(size_t n);

  // --- node SoA (indexed by node id) ---
  std::vector<uint8_t> kind_;
  std::vector<int32_t> parent_;
  std::vector<int32_t> child_index_;
  std::vector<int32_t> child_first_;  // into children_, -1 when childless
  std::vector<int32_t> child_count_;
  std::vector<int32_t> children_;  // concatenated child-id lists
  size_t stranded_children_ = 0;   // ids in no live list (relocated lists)
  std::vector<uint8_t> negated_;
  std::vector<int32_t> topo_;   // parents before children (root first)
  std::vector<int32_t> depth_;  // distance from the root
  bool topo_dirty_ = false;
  int32_t root_ = -1;

  // --- flat limb buffer and per-node slots ---
  std::vector<Limb> limbs_;
  std::vector<Slot> slots_;
  size_t slack_limbs_ = 0;
  std::vector<int32_t> sat_slot_;
  // Inner nodes: the product of the children's nonzero combine vectors
  // (-1 for ground leaves) and the number of children whose combine vector
  // is zero.
  std::vector<int32_t> product_slot_;
  std::vector<uint32_t> zero_count_;

  // The Shapley weight row w_k/G with G and D = n!/G, for the n =
  // weights_.n it was last built for.
  WeightRow weights_;
};

}  // namespace shapcq

#endif  // SHAPCQ_CORE_ENGINE_ARENA_H_
