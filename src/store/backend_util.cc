#include "store/backend_util.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "opt/cost_model.h"
#include "opt/data_flow_graph.h"
#include "opt/flow_tree.h"
#include "util/string_util.h"
#include "util/verify.h"

namespace rdfrel::store {

std::string PlanCacheKey(std::string_view sparql, const QueryOptions& opts) {
  std::string key;
  key.reserve(sparql.size() + 4);
  key.append(sparql);
  key.push_back('\x1f');
  key.push_back(static_cast<char>('0' + static_cast<int>(opts.flow)));
  key.push_back(opts.late_fusing ? '1' : '0');
  key.push_back(opts.merging ? '1' : '0');
  key.push_back(opts.verify_plans ? '1' : '0');
  return key;
}

namespace {

Result<opt::FlowTree> BuildFlowTree(const opt::DataFlowGraph& dfg,
                                    FlowMode mode) {
  switch (mode) {
    case FlowMode::kGreedy:
      return opt::GreedyFlowTree(dfg);
    case FlowMode::kExhaustive:
      return opt::ExhaustiveFlowTree(dfg, 10);
    case FlowMode::kParseOrder:
      return opt::ParseOrderFlowTree(dfg);
  }
  return Status::Internal("unknown flow mode");
}

}  // namespace

Result<opt::ExecNodePtr> OptimizeQuery(const sparql::Query& query,
                                       const OptimizerInputs& in,
                                       const QueryOptions& opts,
                                       SparqlStore::Explanation* explain) {
  const bool verify = opts.verify_plans || util::VerifyPlansEnabled();
  opt::CostModel cost(in.stats, in.dict);
  opt::DataFlowGraph dfg = opt::DataFlowGraph::Build(query, cost);
  RDFREL_ASSIGN_OR_RETURN(opt::FlowTree flow,
                          BuildFlowTree(dfg, opts.flow));
  if (verify) {
    // The parse-order ablation deliberately ignores the data-flow guards,
    // so it is held only to the relaxed bound-by-an-earlier-choice contract.
    RDFREL_RETURN_NOT_OK(opt::VerifyFlowTree(
        dfg, flow,
        opts.flow == FlowMode::kParseOrder
            ? opt::FlowVerifyLevel::kRelaxed
            : opt::FlowVerifyLevel::kStrict));
  }
  RDFREL_ASSIGN_OR_RETURN(opt::ExecNodePtr plan,
                          opt::BuildExecTree(query, flow, opts.late_fusing));
  if (verify) {
    RDFREL_RETURN_NOT_OK(opt::VerifyExecTree(*plan, query, in.verify));
  }
  if (explain != nullptr) {
    explain->parse_tree = query.where->ToString();
    explain->flow_tree = flow.ToString();
    explain->exec_tree = plan->ToString();
  }
  if (opts.merging && in.spill) {
    plan = opt::MergeExecTree(std::move(plan), dfg.tree(), in.spill);
    if (verify) {
      RDFREL_RETURN_NOT_OK(opt::VerifyExecTree(*plan, query, in.verify));
    }
  }
  if (explain != nullptr) explain->plan_tree = plan->ToString();
  return plan;
}

Result<translate::TranslatedQuery> TranslateQuery(
    const sparql::Query& query, const OptimizerInputs& in,
    const QueryOptions& opts, const SqlBuildFn& build,
    SparqlStore::Explanation* explain) {
  RDFREL_ASSIGN_OR_RETURN(opt::ExecNodePtr plan,
                          OptimizeQuery(query, in, opts, explain));
  RDFREL_ASSIGN_OR_RETURN(translate::TranslatedQuery tq,
                          build(query, *plan));
  if (explain != nullptr) explain->sql = tq.sql;
  return tq;
}

std::shared_ptr<const CachedPlan> MakeCachedPlan(
    sparql::Query query, translate::TranslatedQuery translated) {
  auto plan = std::make_shared<CachedPlan>();
  // The post-filter pointers reach into heap-allocated FILTER nodes of the
  // AST, so moving the Query into the plan keeps them valid.
  plan->query = std::move(query);
  plan->sql = std::move(translated.sql);
  plan->post_filters = std::move(translated.post_filters);
  plan->post_filter_vars = std::move(translated.post_filter_vars);
  return plan;
}

Status ProfileExplained(sql::Database* db, SparqlStore::Explanation* explain) {
  return db->QueryProfiled(explain->sql, &explain->exec_stats).status();
}

namespace {

/// Converts one SQL output value to an RDF term. Aggregate columns hold
/// numbers, not dictionary ids.
Result<std::optional<rdf::Term>> DecodeCell(const sql::Value& v,
                                            sparql::AggKind agg,
                                            const rdf::Dictionary& dict) {
  if (v.is_null()) return std::optional<rdf::Term>();
  if (agg != sparql::AggKind::kNone) {
    if (v.is_int()) {
      return std::optional<rdf::Term>(rdf::Term::TypedLiteral(
          std::to_string(v.AsInt()),
          "http://www.w3.org/2001/XMLSchema#integer"));
    }
    if (v.is_double()) {
      std::ostringstream os;
      os << v.AsDouble();
      return std::optional<rdf::Term>(rdf::Term::TypedLiteral(
          os.str(), "http://www.w3.org/2001/XMLSchema#decimal"));
    }
  }
  RDFREL_ASSIGN_OR_RETURN(rdf::Term term,
                          dict.Decode(static_cast<uint64_t>(v.AsInt())));
  return std::optional<rdf::Term>(std::move(term));
}

/// Per-output-column aggregate kinds for decoding.
std::vector<sparql::AggKind> ColumnAggKinds(const sparql::Query& query,
                                            size_t num_cols) {
  std::vector<sparql::AggKind> kinds(num_cols, sparql::AggKind::kNone);
  if (query.HasAggregates()) {
    for (size_t i = 0; i < query.projection.size() && i < num_cols; ++i) {
      kinds[i] = query.projection[i].agg;
    }
  }
  return kinds;
}

}  // namespace

sql::ExecControl ControlFromOptions(const QueryOptions& opts) {
  sql::ExecControl control;
  if (opts.deadline.has_value()) {
    control.deadline = *opts.deadline;
    control.has_deadline = true;
  }
  control.cancel = opts.cancel;
  return control;
}

sql::ExecOptions ExecOptionsFromQueryOptions(const QueryOptions& /*opts*/) {
  return sql::ExecOptions{};
}

Status ExecuteDecodedSqlStreaming(
    sql::Database* db, const std::string& sql, const sparql::Query& query,
    const rdf::Dictionary& dict,
    const std::vector<const sparql::FilterExpr*>& post_filters,
    const std::vector<std::string>& post_filter_vars,
    const QueryOptions& opts, RowSink& sink) {
  const sql::ExecControl control = ControlFromOptions(opts);
  // The SQL row may be wider than the projection: post_filter_vars are
  // extra trailing columns the post-filters and ORDER BY need
  // (sql_base.h). They are decoded, filtered over, sorted on, and trimmed
  // before rows reach the sink.
  std::vector<std::string> visible = query.EffectiveSelectVars();
  const size_t visible_width = visible.size();
  std::vector<std::string> vars = visible;
  vars.insert(vars.end(), post_filter_vars.begin(), post_filter_vars.end());
  const std::vector<sparql::AggKind> kinds = ColumnAggKinds(query,
                                                            vars.size());
  // The modifiers the SQL builder left out run here, after the
  // post-filters and ORDER BY (same rule as the builder:
  // translate::PlaceModifiers).
  RDFREL_ASSIGN_OR_RETURN(
      const translate::ModifierPlacement place,
      translate::PlaceModifiers(query, !post_filters.empty(),
                                !post_filter_vars.empty()));
  const bool distinct_here = query.distinct && !place.distinct_in_sql;
  const bool slice_here = !place.slice_in_sql;
  // ORDER BY sorts whole decoded rows (extra columns included) before the
  // trim, DISTINCT and slice, so it buffers every row until the SQL ends.
  std::vector<std::pair<size_t, bool>> order_keys;  // column, descending
  for (const auto& oc : query.order_by) {
    auto it = std::find(vars.begin(), vars.end(), oc.var);
    if (it != vars.end()) {
      order_keys.emplace_back(static_cast<size_t>(it - vars.begin()),
                              oc.descending);
    }
  }
  const bool order_here = !query.order_by.empty();
  std::vector<Binding> ordered;
  std::set<std::string> seen;
  int64_t skip = slice_here && query.offset.has_value() ? *query.offset : 0;
  int64_t budget = slice_here && query.limit.has_value() ? *query.limit : -1;
  auto emit = [&](std::vector<Binding> block) -> Status {
    // Also drops the placeholder column of a query that projects nothing.
    for (auto& row : block) {
      if (row.size() > visible_width) row.resize(visible_width);
    }
    if (distinct_here || slice_here) {
      std::vector<Binding> kept;
      kept.reserve(block.size());
      for (auto& row : block) {
        if (distinct_here) {
          std::string sig;
          for (const auto& c : row) {
            sig += c.has_value() ? c->ToNTriples() : std::string("\x01");
            sig += '\x1f';
          }
          if (!seen.insert(std::move(sig)).second) continue;
        }
        if (skip > 0) {
          --skip;
          continue;
        }
        if (budget == 0) break;
        if (budget > 0) --budget;
        kept.push_back(std::move(row));
      }
      block = std::move(kept);
    }
    return sink.OnRows(std::move(block));
  };
  RDFREL_RETURN_NOT_OK(sink.Begin(visible));
  RDFREL_RETURN_NOT_OK(db->QueryStreaming(
      sql, &control, nullptr, [&](const sql::RowBatch& batch) -> Status {
        // The slice is full: later rows cannot reach the sink.
        if (budget == 0) return Status::OK();
        std::vector<Binding> block;
        block.reserve(batch.ActiveSize());
        for (size_t r = 0; r < batch.ActiveSize(); ++r) {
          const sql::Row& row = batch.Active(r);
          Binding binding;
          binding.reserve(row.size());
          for (size_t i = 0; i < row.size(); ++i) {
            RDFREL_ASSIGN_OR_RETURN(
                auto cell,
                DecodeCell(row[i],
                           i < kinds.size() ? kinds[i]
                                            : sparql::AggKind::kNone,
                           dict));
            binding.push_back(std::move(cell));
          }
          block.push_back(std::move(binding));
        }
        RDFREL_RETURN_NOT_OK(
            ApplyPostFiltersToRows(post_filters, vars, &block));
        if (!order_here) return emit(std::move(block));
        ordered.insert(ordered.end(), std::make_move_iterator(block.begin()),
                       std::make_move_iterator(block.end()));
        return Status::OK();
      }));
  if (order_here) {
    std::stable_sort(ordered.begin(), ordered.end(),
                     [&](const Binding& a, const Binding& b) {
                       for (const auto& [col, desc] : order_keys) {
                         int c = CompareForOrderBy(a[col], b[col]);
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
    RDFREL_RETURN_NOT_OK(emit(std::move(ordered)));
  }
  return sink.End();
}

Status BuildLexTable(sql::Database* db, const rdf::Dictionary& dict,
                     const std::string& table) {
  RDFREL_ASSIGN_OR_RETURN(
      sql::Table * lex,
      db->catalog().CreateTable(
          table, sql::Schema({{"id", sql::ValueType::kInt64},
                              {"num", sql::ValueType::kDouble}})));
  for (uint64_t id = 1; id <= dict.size(); ++id) {
    auto term = dict.Decode(id);
    double num;
    if (!term.ok() || !term->is_literal() ||
        !ParseDouble(term->lexical(), &num)) {
      continue;
    }
    RDFREL_RETURN_NOT_OK(
        lex->Insert({sql::Value::Int(static_cast<int64_t>(id)),
                     sql::Value::Real(num)})
            .status());
  }
  return lex->CreateIndex(table + "_id", "id");
}

}  // namespace rdfrel::store
