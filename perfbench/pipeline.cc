#include "pipeline.h"

#include <algorithm>
#include <map>

#include "opt/cost_model.h"
#include "opt/data_flow_graph.h"
#include "opt/exec_tree.h"
#include "opt/flow_tree.h"
#include "opt/merge.h"
#include "serve/result_writer.h"
#include "sparql/parser.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "store/backend_util.h"
#include "translate/sql_builder.h"

namespace perfbench {

namespace store = rdfrel::store;
namespace sql = rdfrel::sql;
namespace opt = rdfrel::opt;

namespace {

/// The literal side table RdfStore::Load builds with default options.
constexpr const char* kLexTable = "lex";

uint64_t SumOperatorRows(sql::Operator& op) {
  uint64_t rows = op.stats().rows;
  for (sql::Operator* child : op.children()) rows += SumOperatorRows(*child);
  return rows;
}

}  // namespace

double LayerSample::decode_ms() const {
  return std::max(0.0,
                  execute_decoded_ms - (sql_parse_ms + plan_cte_ms + exec_ms));
}

double LayerSample::front_half_ms() const {
  return parse_ms + dfg_ms + flow_ms + exec_tree_ms + merge_ms + sql_gen_ms;
}

rdfrel::Result<LayerSample> TraceQuery(store::RdfStore& st,
                                       std::string_view sparql,
                                       Tracer& tracer, uint64_t request) {
  LayerSample s;
  const int root = tracer.Begin("request", request);
  // Early returns close the request span (and any span left open in it).
  auto fail = [&](const rdfrel::Status& status) {
    tracer.End(root);
    return status;
  };

  // --- Front half: SPARQL -> SQL, as RdfStore::Translate does it. ---
  int span = tracer.Begin("sparql.parse", request);
  auto parsed = rdfrel::sparql::ParseQuery(sparql);
  s.parse_ms = tracer.End(span);
  if (!parsed.ok()) return fail(parsed.status());
  const rdfrel::sparql::Query query = std::move(parsed).value();

  const opt::CostModel cost(&st.statistics(), &st.dictionary());
  span = tracer.Begin("opt.dfg_build", request);
  const opt::DataFlowGraph dfg = opt::DataFlowGraph::Build(query, cost);
  s.dfg_ms = tracer.End(span);
  s.dfg_edges = dfg.edges().size();

  span = tracer.Begin("opt.flow_tree", request);
  const opt::FlowTree flow = opt::GreedyFlowTree(dfg);
  s.flow_ms = tracer.End(span);

  span = tracer.Begin("opt.exec_tree", request);
  auto exec_tree = opt::BuildExecTree(query, flow, /*late_fusing=*/true);
  s.exec_tree_ms = tracer.End(span);
  if (!exec_tree.ok()) return fail(exec_tree.status());

  const opt::SpillCheck spill = [&st](const rdfrel::sparql::TriplePattern& t,
                                      opt::AccessMethod m) {
    if (t.predicate.is_var) return true;
    const uint64_t pid = st.dictionary().Lookup(t.predicate.term);
    const auto& spilled = m == opt::AccessMethod::kAco
                              ? st.schema().spilled_reverse()
                              : st.schema().spilled_direct();
    return spilled.count(pid) > 0;
  };
  span = tracer.Begin("opt.merge", request);
  const opt::ExecNodePtr plan =
      opt::MergeExecTree(std::move(exec_tree).value(), dfg.tree(), spill);
  s.merge_ms = tracer.End(span);

  const std::map<int, std::string> no_closures;
  rdfrel::translate::StoreContext ctx;
  ctx.schema = &st.schema();
  ctx.direct_mapping = &st.direct_mapping();
  ctx.reverse_mapping = &st.reverse_mapping();
  ctx.dict = &st.dictionary();
  ctx.lex_table = kLexTable;
  ctx.closure_tables = &no_closures;
  span = tracer.Begin("translate.sql_gen", request);
  auto translated = rdfrel::translate::BuildSqlFull(query, *plan, ctx);
  s.sql_gen_ms = tracer.End(span);
  if (!translated.ok()) return fail(translated.status());
  const rdfrel::translate::TranslatedQuery& tq = *translated;
  s.sql = tq.sql;
  s.sql_bytes = tq.sql.size();

  // --- The SQL engine, as sql::Database::QueryStreaming runs it. ---
  sql::Database& db = st.database();
  const store::QueryOptions qopts;
  const sql::ExecControl control = store::ControlFromOptions(qopts);
  sql::ExecOptions exec = store::ExecOptionsFromQueryOptions(qopts);
  exec.control = &control;

  span = tracer.Begin("sql.parse", request);
  auto stmt = sql::ParseSelect(tq.sql);
  s.sql_parse_ms = tracer.End(span);
  if (!stmt.ok()) return fail(stmt.status());

  sql::CteEnv env;
  span = tracer.Begin("sql.plan_cte", request);
  auto op = sql::PlanSelect(db.catalog(), **stmt, &env, db.exec_mode(),
                            &control, &exec);
  s.plan_cte_ms = tracer.End(span);
  if (!op.ok()) return fail(op.status());
  for (const auto& [name, mat] : env) s.cte_rows += mat->rows.size();

  span = tracer.Begin("sql.exec", request);
  sql::Operator& root_op = **op;
  root_op.SetExecMode(db.exec_mode());
  root_op.SetControl(&control);
  rdfrel::Status st_exec = root_op.Open();
  sql::RowBatch batch;
  while (st_exec.ok()) {
    auto has = root_op.NextBatch(&batch);
    if (!has.ok()) {
      st_exec = has.status();
    } else if (!*has) {
      break;
    }
  }
  s.exec_ms = tracer.End(span);
  if (!st_exec.ok()) return fail(st_exec);
  s.operator_rows = SumOperatorRows(root_op);

  // --- Decode: the store's back half on the same SQL. ---
  store::CollectingSink sink;
  span = tracer.Begin("store.execute_decoded", request);
  rdfrel::Status st_decode = store::ExecuteDecodedSqlStreaming(
      &db, tq.sql, query, st.dictionary(), tq.post_filters,
      tq.post_filter_vars, qopts, sink);
  s.execute_decoded_ms = tracer.End(span);
  if (!st_decode.ok()) return fail(st_decode);
  const store::ResultSet& rs = sink.result();

  span = tracer.Begin("serve.serialize", request);
  const std::string json = rdfrel::serve::SerializeResultSet(rs, "json");
  s.serialize_ms = tracer.End(span);
  tracer.End(root);

  s.result_rows = rs.rows.size();
  s.answer = AnswerOfJson(json).value_or(Answer{});
  return s;
}

}  // namespace perfbench
