#include "optimizer/enumerator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "algebra/formula.h"
#include "obs/stats.h"
#include "schema/extended_schema.h"

namespace serena::optimizer {

namespace {

constexpr double kCostEpsilon = 1e-9;

/// Follows a σ chain; true when it ends at a join — the shape of an
/// enumerable region (σ* over a ⋈ tree).
bool EndsAtJoin(const PlanNode* node) {
  while (node->kind() == PlanKind::kSelect) {
    node = static_cast<const SelectNode*>(node)->child().get();
  }
  return node->kind() == PlanKind::kJoin;
}

bool IsRegionRoot(const PlanNode& node) {
  return node.kind() == PlanKind::kJoin ||
         (node.kind() == PlanKind::kSelect && EndsAtJoin(&node));
}

/// One σ conjunct peeled off the region, with the leaf subsets that can
/// validate it: the conjunct may sink to any leaf subset S where every
/// referenced attribute is real in ⋈(S)'s schema, i.e. real in at least
/// one member leaf (shared attributes merge real-if-either, Table 3).
/// This is `ReadsOnlyRealOf` evaluated over leaf *sets* through per-leaf
/// bitmasks: a conjunct may be covered only by a union of leaves, and a
/// schema per subset would cost 2ⁿ inferences.
struct Conjunct {
  FormulaPtr formula;
  /// One bitmask per referenced attribute: leaves where it is real.
  std::vector<std::uint64_t> attribute_masks;
  /// False when some referenced attribute is real in no leaf (e.g. it is
  /// realized by a hoisted β) — the conjunct then stays at the region
  /// root and never sinks.
  bool sinkable = true;
};

bool Placeable(const Conjunct& conjunct, std::uint64_t subset) {
  if (!conjunct.sinkable) return false;
  for (const std::uint64_t mask : conjunct.attribute_masks) {
    if ((mask & subset) == 0) return false;
  }
  return true;
}

/// A β peeled off a leaf for the hoisted DP variant.
struct HoistedBeta {
  std::string prototype;
  std::string service_attribute;
};

struct Region {
  std::vector<PlanPtr> leaves;
  std::vector<FormulaPtr> conjunct_formulas;  // In written order.
};

/// Flattens a σ*-over-⋈-tree region into its leaves and σ conjuncts.
/// σs *between* joins are peeled too (their conjuncts re-sink wherever
/// the DP decides); σs over non-join subtrees stay inside their leaf.
void Flatten(const PlanPtr& node, Region* region) {
  if (node->kind() == PlanKind::kJoin) {
    const auto* join = static_cast<const JoinNode*>(node.get());
    Flatten(join->left(), region);
    Flatten(join->right(), region);
    return;
  }
  if (node->kind() == PlanKind::kSelect && EndsAtJoin(node.get())) {
    const auto* select = static_cast<const SelectNode*>(node.get());
    for (FormulaPtr& conjunct : SplitConjuncts(select->formula())) {
      region->conjunct_formulas.push_back(std::move(conjunct));
    }
    Flatten(select->child(), region);
    return;
  }
  region->leaves.push_back(node);
}

/// Rebuilds the region with the same operator structure but new leaves
/// (used after the leaves themselves were transformed recursively).
/// Traversal order mirrors `Flatten`.
PlanPtr RebuildWithLeaves(const PlanPtr& node,
                          const std::vector<PlanPtr>& leaves,
                          std::size_t* next_leaf) {
  if (node->kind() == PlanKind::kJoin) {
    const auto* join = static_cast<const JoinNode*>(node.get());
    PlanPtr left = RebuildWithLeaves(join->left(), leaves, next_leaf);
    PlanPtr right = RebuildWithLeaves(join->right(), leaves, next_leaf);
    return Join(std::move(left), std::move(right));
  }
  if (node->kind() == PlanKind::kSelect && EndsAtJoin(node.get())) {
    const auto* select = static_cast<const SelectNode*>(node.get());
    PlanPtr child = RebuildWithLeaves(select->child(), leaves, next_leaf);
    return Select(std::move(child), select->formula());
  }
  return leaves[(*next_leaf)++];
}

/// (name → is_real) for one schema.
using AttributeMap = std::map<std::string, bool>;

AttributeMap MapAttributes(const ExtendedSchema& schema) {
  AttributeMap map;
  for (const std::string& name : schema.AllNames()) {
    map[name] = schema.IsReal(name);
  }
  return map;
}

/// Per-leaf inputs of one DP run.
struct LeafInfo {
  PlanPtr plan;
  AttributeMap attributes;
  double card = 0;
  double cost = 0;
};

struct DpResult {
  PlanFragment* best = nullptr;  // Full leaf set; next = dominated.
  std::size_t fragments = 0;
};

class DpEnumerator {
 public:
  DpEnumerator(const CostModel& model, const EnumerationOptions& options,
               FragmentPool* pool, std::vector<LeafInfo> leaves,
               const std::vector<Conjunct>* conjuncts)
      : model_(model),
        options_(options),
        pool_(pool),
        leaves_(std::move(leaves)),
        conjuncts_(conjuncts) {}

  DpResult Run() {
    const std::size_t n = leaves_.size();
    const std::uint64_t full = (std::uint64_t{1} << n) - 1;
    std::vector<PlanFragment*> best(full + 1, nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      best[std::uint64_t{1} << i] = MakeLeaf(i);
    }
    for (std::uint64_t s = 1; s <= full; ++s) {
      if (__builtin_popcountll(s) < 2) continue;
      // Every ordered split: `sub` joins on the left, the rest on the
      // right. Fixed descending iteration keeps the run deterministic.
      for (std::uint64_t sub = (s - 1) & s; sub != 0; sub = (sub - 1) & s) {
        const std::uint64_t rest = s ^ sub;
        if (best[sub] == nullptr || best[rest] == nullptr) continue;
        Offer(&best[s], Combine(best[sub], best[rest]), s == full);
      }
    }
    return {best[full], pool_->size()};
  }

 private:
  PlanFragment* MakeLeaf(std::size_t index) {
    const std::uint64_t bit = std::uint64_t{1} << index;
    PlanFragment* fragment = pool_->Create();
    fragment->plan = leaves_[index].plan;
    fragment->card = leaves_[index].card;
    fragment->cost = leaves_[index].cost;
    fragment->ordering = static_cast<unsigned>(index);
    fragment->leaves = bit;
    ApplyNewConjuncts(fragment, /*left=*/0, /*right=*/0);
    return fragment;
  }

  PlanFragment* Combine(const PlanFragment* left, const PlanFragment* right) {
    PlanFragment* fragment = pool_->Create();
    fragment->plan = Join(left->plan, right->plan);
    fragment->leaves = left->leaves | right->leaves;
    fragment->ordering = left->ordering;
    fragment->card = left->card * right->card *
                     model_.JoinSelectivity(SharedKeys(left->leaves,
                                                      right->leaves));
    fragment->cost = left->cost + right->cost + fragment->card;
    ApplyNewConjuncts(fragment, left->leaves, right->leaves);
    return fragment;
  }

  /// Sinks every conjunct that becomes placeable exactly at this
  /// fragment's leaf set (conjuncts placeable on a side were already
  /// applied inside that side's fragment).
  void ApplyNewConjuncts(PlanFragment* fragment, std::uint64_t left,
                         std::uint64_t right) {
    std::vector<FormulaPtr> formulas;
    double selectivity = 1.0;
    for (const Conjunct& conjunct : *conjuncts_) {
      if (!Placeable(conjunct, fragment->leaves)) continue;
      if (left != 0 && (Placeable(conjunct, left) ||
                        Placeable(conjunct, right))) {
        continue;
      }
      formulas.push_back(conjunct.formula);
      selectivity *= model_.FormulaSelectivity(*conjunct.formula);
    }
    if (formulas.empty()) return;
    fragment->plan = Select(fragment->plan, CombineConjuncts(formulas));
    fragment->cost += fragment->card;  // One filtering pass over the input.
    fragment->card *= selectivity;
  }

  /// Number of join-key attributes between two leaf subsets: shared
  /// names, real on at least one side.
  std::size_t SharedKeys(std::uint64_t left, std::uint64_t right) const {
    AttributeMap left_attrs = MergedAttributes(left);
    AttributeMap right_attrs = MergedAttributes(right);
    std::size_t shared = 0;
    for (const auto& [name, real] : left_attrs) {
      const auto it = right_attrs.find(name);
      if (it != right_attrs.end() && (real || it->second)) ++shared;
    }
    return shared;
  }

  AttributeMap MergedAttributes(std::uint64_t subset) const {
    AttributeMap merged;
    for (std::size_t i = 0; i < leaves_.size(); ++i) {
      if ((subset & (std::uint64_t{1} << i)) == 0) continue;
      for (const auto& [name, real] : leaves_[i].attributes) {
        merged[name] = merged[name] || real;
      }
    }
    return merged;
  }

  /// Keeps the cheapest fragment per leaf set; the written order wins
  /// cost ties, which pins the enumeration output deterministically.
  void Offer(PlanFragment** slot, PlanFragment* candidate,
             bool keep_rejected) {
    if (*slot == nullptr) {
      *slot = candidate;
      return;
    }
    PlanFragment* incumbent = *slot;
    const bool better =
        candidate->cost < incumbent->cost - kCostEpsilon ||
        (std::abs(candidate->cost - incumbent->cost) <= kCostEpsilon &&
         candidate->ordering < incumbent->ordering);
    if (better) {
      candidate->next = incumbent;
      *slot = candidate;
    } else if (keep_rejected) {
      candidate->next = incumbent->next;
      incumbent->next = candidate;
    }
    if (!keep_rejected) {
      (*slot)->next = nullptr;
      return;
    }
    PlanFragment* tail = *slot;
    std::size_t kept = 0;
    while (tail->next != nullptr) {
      if (++kept >= options_.max_rejected) {
        tail->next = nullptr;
        break;
      }
      tail = tail->next;
    }
  }

  const CostModel& model_;
  const EnumerationOptions& options_;
  FragmentPool* pool_;
  std::vector<LeafInfo> leaves_;
  const std::vector<Conjunct>* conjuncts_;
};

class Enumerator {
 public:
  Enumerator(const Environment& env, const StreamStore* streams,
             const CostModel& model, const EnumerationOptions& options)
      : env_(env), streams_(streams), model_(model), options_(options) {}

  Result<EnumerationResult> Run(const PlanPtr& plan) {
    SERENA_ASSIGN_OR_RETURN(PlanPtr transformed, Transform(plan));
    EnumerationResult result;
    result.plan = changed_ ? transformed : plan;
    result.fragments = fragments_;
    result.join_regions = join_regions_;
    result.rejected = std::move(rejected_);
    if (!changed_) return result;
    if (auto naive = model_.Estimate(plan); naive.ok()) {
      result.naive_cost = naive->Total();
    }
    if (auto chosen = model_.Estimate(transformed); chosen.ok()) {
      result.chosen_cost = chosen->Total();
    }
    CollectRefingerprints(plan, transformed, &result.refingerprints);
    return result;
  }

 private:
  Result<PlanPtr> Transform(const PlanPtr& plan) {
    if (IsRegionRoot(*plan)) return TransformRegion(plan);
    std::vector<PlanPtr> children = plan->children();
    if (children.empty()) return plan;
    for (PlanPtr& child : children) {
      SERENA_ASSIGN_OR_RETURN(child, Transform(child));
    }
    return ReplaceChildren(plan, std::move(children));
  }

  Result<PlanPtr> TransformRegion(const PlanPtr& region) {
    Region flat;
    Flatten(region, &flat);
    for (PlanPtr& leaf : flat.leaves) {
      SERENA_ASSIGN_OR_RETURN(leaf, Transform(leaf));
    }
    // The baseline: the written structure over the transformed leaves.
    std::size_t next_leaf = 0;
    PlanPtr baseline = RebuildWithLeaves(region, flat.leaves, &next_leaf);
    if (flat.leaves.size() < 2 ||
        flat.leaves.size() > options_.max_join_leaves) {
      return baseline;
    }
    ++join_regions_;

    PlanPtr enumerated = EnumerateRegion(flat, baseline);
    if (enumerated == nullptr) return baseline;

    // Keep the restructuring only when the model says it wins, and only
    // with the baseline's exact schema (order included — rendering
    // depends on it); a compensating π restores the attribute order.
    auto baseline_cost = model_.Estimate(baseline);
    auto enumerated_cost = model_.Estimate(enumerated);
    if (!baseline_cost.ok() || !enumerated_cost.ok() ||
        enumerated_cost->Total() >= baseline_cost->Total() - kCostEpsilon) {
      return baseline;
    }
    auto baseline_schema = baseline->InferSchema(env_, streams_);
    auto new_schema = enumerated->InferSchema(env_, streams_);
    if (!baseline_schema.ok() || !new_schema.ok()) return baseline;
    if (!(*new_schema)->SameAttributes(**baseline_schema)) {
      enumerated = Project(enumerated, (*baseline_schema)->AllNames());
      auto compensated = enumerated->InferSchema(env_, streams_);
      if (!compensated.ok() ||
          !(*compensated)->SameAttributes(**baseline_schema)) {
        return baseline;
      }
    }
    if (enumerated->ToString() == baseline->ToString()) return baseline;
    changed_ = true;
    region_map_[region.get()] = enumerated;
    return enumerated;
  }

  /// Runs the subset-DP over one region — twice when a passive β leaf
  /// may hoist above the join tree — and returns the cheapest
  /// materialized region root (nullptr when enumeration is not
  /// applicable, e.g. a leaf schema cannot be inferred).
  PlanPtr EnumerateRegion(const Region& flat, const PlanPtr& baseline) {
    const std::size_t n = flat.leaves.size();
    std::vector<ExtendedSchemaPtr> schemas(n);
    std::vector<LeafInfo> leaves(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto schema = flat.leaves[i]->InferSchema(env_, streams_);
      if (!schema.ok()) return nullptr;
      schemas[i] = *schema;
      auto cost = model_.Estimate(flat.leaves[i]);
      if (!cost.ok()) return nullptr;
      leaves[i] = {flat.leaves[i], MapAttributes(*schemas[i]),
                   cost->cardinality, cost->Total()};
    }

    PlanPtr best = RunVariant(flat, leaves, {});
    double best_total = 0;
    bool have_best = false;
    if (best != nullptr) {
      if (auto cost = model_.Estimate(best); cost.ok()) {
        best_total = cost->Total();
        have_best = true;
      } else {
        best = nullptr;
      }
    }

    // Hoisted variant: peel safe passive β leaves, run the DP over their
    // children, and re-invoke above the join root (σ conjuncts that
    // sank below the β never read its virtual outputs, so this is the
    // Table 5 defer-invoke rewrite generalized to the whole region).
    std::vector<LeafInfo> stripped = leaves;
    std::vector<HoistedBeta> betas;
    bool any_hoist = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!HoistableBeta(flat.leaves, schemas, i)) continue;
      const auto* invoke =
          static_cast<const InvokeNode*>(flat.leaves[i].get());
      auto child_schema = invoke->child()->InferSchema(env_, streams_);
      auto child_cost = model_.Estimate(invoke->child());
      if (!child_schema.ok() || !child_cost.ok()) continue;
      stripped[i] = {invoke->child(), MapAttributes(**child_schema),
                     child_cost->cardinality, child_cost->Total()};
      betas.push_back({invoke->prototype(), invoke->service_attribute()});
      any_hoist = true;
    }
    if (any_hoist) {
      if (PlanPtr hoisted = RunVariant(flat, stripped, betas);
          hoisted != nullptr) {
        auto hoisted_cost = model_.Estimate(hoisted);
        if (hoisted_cost.ok() &&
            (!have_best ||
             hoisted_cost->Total() < best_total - kCostEpsilon)) {
          best = std::move(hoisted);
        }
      }
    }
    return best;
  }

  /// One DP run: builds conjunct masks against the given leaf schemas,
  /// enumerates, then materializes root = DP plan → hoisted βs →
  /// unsinkable σ conjuncts.
  PlanPtr RunVariant(const Region& flat, const std::vector<LeafInfo>& leaves,
                     const std::vector<HoistedBeta>& betas) {
    std::vector<Conjunct> conjuncts;
    conjuncts.reserve(flat.conjunct_formulas.size());
    for (const FormulaPtr& formula : flat.conjunct_formulas) {
      Conjunct conjunct;
      conjunct.formula = formula;
      std::set<std::string> attributes;
      formula->CollectAttributes(&attributes);
      for (const std::string& attribute : attributes) {
        std::uint64_t mask = 0;
        for (std::size_t i = 0; i < leaves.size(); ++i) {
          const auto it = leaves[i].attributes.find(attribute);
          if (it != leaves[i].attributes.end() && it->second) {
            mask |= std::uint64_t{1} << i;
          }
        }
        if (mask == 0) conjunct.sinkable = false;
        conjunct.attribute_masks.push_back(mask);
      }
      conjuncts.push_back(std::move(conjunct));
    }

    FragmentPool pool;
    DpEnumerator dp(model_, options_, &pool, leaves, &conjuncts);
    DpResult result = dp.Run();
    fragments_ += result.fragments;
    if (result.best == nullptr) return nullptr;

    for (const PlanFragment* alternative = result.best->next;
         alternative != nullptr; alternative = alternative->next) {
      if (rejected_.size() < options_.max_rejected) {
        rejected_.push_back(
            {Finish(alternative->plan, betas, conjuncts), FinishCost(
                 alternative->plan, betas, conjuncts)});
      }
    }
    return FinishPlan(result.best->plan, betas, conjuncts);
  }

  PlanPtr FinishPlan(PlanPtr root, const std::vector<HoistedBeta>& betas,
                     const std::vector<Conjunct>& conjuncts) {
    for (const HoistedBeta& beta : betas) {
      root = Invoke(root, beta.prototype, beta.service_attribute);
    }
    std::vector<FormulaPtr> unsinkable;
    for (const Conjunct& conjunct : conjuncts) {
      if (!conjunct.sinkable) unsinkable.push_back(conjunct.formula);
    }
    if (!unsinkable.empty()) {
      root = Select(std::move(root), CombineConjuncts(unsinkable));
    }
    return root;
  }

  std::string Finish(const PlanPtr& root,
                     const std::vector<HoistedBeta>& betas,
                     const std::vector<Conjunct>& conjuncts) {
    return FinishPlan(root, betas, conjuncts)->ToString();
  }

  double FinishCost(const PlanPtr& root,
                    const std::vector<HoistedBeta>& betas,
                    const std::vector<Conjunct>& conjuncts) {
    auto cost = model_.Estimate(FinishPlan(root, betas, conjuncts));
    return cost.ok() ? cost->Total() : 0.0;
  }

  /// A leaf β may hoist above the region when it is passive, resolvable,
  /// and its virtual outputs collide with no other leaf (a shared output
  /// name would change what the join matches on); a second pattern for
  /// the same prototype anywhere in the region would make the hoisted
  /// resolution ambiguous.
  bool HoistableBeta(const std::vector<PlanPtr>& leaves,
                     const std::vector<ExtendedSchemaPtr>& schemas,
                     std::size_t index) {
    if (leaves[index]->kind() != PlanKind::kInvoke) return false;
    const auto* invoke =
        static_cast<const InvokeNode*>(leaves[index].get());
    auto child_schema = invoke->child()->InferSchema(env_, streams_);
    if (!child_schema.ok()) return false;
    auto pattern = invoke->ResolveBindingPattern(**child_schema);
    if (!pattern.ok() || pattern->active()) return false;
    std::set<std::string> child_names;
    for (const std::string& name : (*child_schema)->AllNames()) {
      child_names.insert(name);
    }
    for (std::size_t other = 0; other < leaves.size(); ++other) {
      if (other == index) continue;
      for (const BindingPattern& other_pattern :
           schemas[other]->binding_patterns()) {
        if (other_pattern.prototype().name() == invoke->prototype()) {
          return false;
        }
      }
      for (const std::string& name : schemas[index]->AllNames()) {
        if (child_names.count(name) != 0) continue;  // β output only.
        if (schemas[other]->Contains(name)) return false;
      }
    }
    return true;
  }

  /// Fingerprint aliases: walk the original and final trees in lockstep
  /// through the unchanged ancestor structure; a changed region's root is
  /// aliased (its output is proven identical) but never descended into —
  /// inside it old and new operators do not correspond.
  void CollectRefingerprints(
      const PlanPtr& before, const PlanPtr& after,
      std::vector<std::pair<std::string, std::string>>* out) {
    if (before == after || before->ToString() == after->ToString()) return;
    out->emplace_back(obs::OperatorFingerprint(*after),
                      obs::OperatorFingerprint(*before));
    const auto it = region_map_.find(before.get());
    if (it != region_map_.end()) return;
    const std::vector<PlanPtr> before_children = before->children();
    const std::vector<PlanPtr> after_children = after->children();
    if (before->kind() != after->kind() ||
        before_children.size() != after_children.size()) {
      return;
    }
    for (std::size_t i = 0; i < before_children.size(); ++i) {
      CollectRefingerprints(before_children[i], after_children[i], out);
    }
  }

  const Environment& env_;
  const StreamStore* streams_;
  const CostModel& model_;
  const EnumerationOptions& options_;
  bool changed_ = false;
  std::size_t fragments_ = 0;
  std::size_t join_regions_ = 0;
  std::vector<RejectedPlan> rejected_;
  /// Original region root → its enumerated replacement.
  std::map<const PlanNode*, PlanPtr> region_map_;
};

}  // namespace

Result<EnumerationResult> EnumeratePlan(const PlanPtr& plan,
                                        const Environment& env,
                                        const StreamStore* streams,
                                        const CostModelPtr& model,
                                        const EnumerationOptions& options) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  if (model == nullptr) {
    return Status::InvalidArgument("enumeration requires a cost model");
  }
  Enumerator enumerator(env, streams, *model, options);
  return enumerator.Run(plan);
}

}  // namespace serena::optimizer
