#include "store/rdf_store.h"

#include <cmath>
#include <unordered_set>

#include "persist/coding.h"
#include "persist/serializer.h"
#include "schema/hash_mapping.h"
#include "translate/sql_builder.h"

namespace rdfrel::store {

namespace {

/// Builds the predicate mapping for one direction: coloring (with hash
/// fallback when over budget) or pure hashing.
struct MappingChoice {
  std::shared_ptr<const schema::PredicateMapping> mapping;
  uint32_t columns;
};

MappingChoice BuildMapping(const rdf::Graph& graph,
                           const rdf::TripleGroups& groups, bool reverse,
                           const RdfStoreOptions& opts) {
  uint32_t fixed_k = reverse ? opts.k_reverse : opts.k_direct;
  uint64_t seed = reverse ? 2 : 1;
  if (!opts.use_coloring) {
    uint32_t k = fixed_k != 0 ? fixed_k : 32;
    return {std::make_shared<schema::HashMapping>(k, opts.hash_functions,
                                                  seed),
            k};
  }
  schema::InterferenceGraph ig =
      schema::InterferenceGraph::FromGroups(groups, graph.triples());
  uint32_t budget = fixed_k != 0 ? fixed_k : opts.max_columns;
  schema::ColoringResult r = schema::ColorInterferenceGraph(ig, budget);
  uint32_t k = fixed_k != 0 ? fixed_k : std::max(r.colors_used, 1u);
  return {std::make_shared<schema::ColoringMapping>(
              std::move(r), k, opts.hash_functions, seed),
          k};
}

}  // namespace

Result<std::unique_ptr<RdfStore>> RdfStore::Load(
    rdf::Graph graph, const RdfStoreOptions& options) {
  auto store = std::unique_ptr<RdfStore>(new RdfStore());
  store->stats_ = opt::Statistics::FromGraph(graph, options.stats_top_k);

  // Grouped once, for both the coloring and the shredding.
  const rdf::TripleGroups by_subject = graph.GroupBySubject();
  const rdf::TripleGroups by_object = graph.GroupByObject();
  MappingChoice direct =
      BuildMapping(graph, by_subject, /*reverse=*/false, options);
  MappingChoice rev = BuildMapping(graph, by_object, /*reverse=*/true, options);

  schema::Db2RdfConfig cfg;
  cfg.k_direct = direct.columns;
  cfg.k_reverse = rev.columns;
  cfg.prefix = options.prefix;
  RDFREL_ASSIGN_OR_RETURN(store->schema_,
                          schema::Db2RdfSchema::Create(&store->db_, cfg));
  store->direct_ = direct.mapping;
  store->reverse_ = rev.mapping;
  store->loader_ = std::make_unique<schema::Loader>(
      store->schema_.get(), store->direct_, store->reverse_);
  RDFREL_ASSIGN_OR_RETURN(store->load_stats_,
                          store->loader_->BulkLoad(graph, by_subject,
                                                   by_object));

  if (options.build_lex) {
    store->lex_table_ = options.prefix + "lex";
    RDFREL_RETURN_NOT_OK(
        BuildLexTable(&store->db_, graph.dictionary(), store->lex_table_));
  }

  store->dict_ = std::move(graph.dictionary());
  return store;
}

Result<std::string> RdfStore::EnsureClosureTable(const rdf::Term& pred,
                                                 sparql::PathMod mod) {
  uint64_t pid = dict_.Lookup(pred);
  auto key = std::make_pair(pid, static_cast<int>(mod));
  auto cached = closure_cache_.find(key);
  if (cached != closure_cache_.end()) return cached->second;

  // 1. Extract the predicate's edges through the normal translation path.
  sparql::Query edge_query;
  edge_query.select_vars = {"s", "o"};
  {
    sparql::TriplePattern tp;
    tp.subject = sparql::TermOrVar::Var("s");
    tp.predicate = sparql::TermOrVar::Of(pred);
    tp.object = sparql::TermOrVar::Var("o");
    tp.id = 1;
    edge_query.where = sparql::MakeTriplePattern(std::move(tp));
    edge_query.num_triples = 1;
  }
  RDFREL_ASSIGN_OR_RETURN(translate::TranslatedQuery edges,
                          Translate(edge_query, QueryOptions{}, nullptr));
  RDFREL_ASSIGN_OR_RETURN(sql::QueryResult qr, db_.Query(edges.sql));

  // 2. Transitive closure by per-node BFS over the adjacency lists.
  std::unordered_map<int64_t, std::vector<int64_t>> adj;
  std::vector<int64_t> nodes;
  std::unordered_set<int64_t> node_set;
  for (const auto& row : qr.rows) {
    if (row[0].is_null() || row[1].is_null()) continue;
    int64_t s = row[0].AsInt(), o = row[1].AsInt();
    adj[s].push_back(o);
    if (node_set.insert(s).second) nodes.push_back(s);
    if (node_set.insert(o).second) nodes.push_back(o);
  }

  std::string table =
      schema_->config().prefix + "path" +
      std::to_string(path_table_counter_++);
  RDFREL_ASSIGN_OR_RETURN(
      sql::Table * t,
      db_.catalog().CreateTable(
          table, sql::Schema({{"entry", sql::ValueType::kInt64},
                              {"val", sql::ValueType::kInt64}})));
  std::unordered_set<int64_t> reached;
  std::vector<int64_t> frontier;
  for (int64_t start : nodes) {
    reached.clear();
    frontier.clear();
    frontier.push_back(start);
    while (!frontier.empty()) {
      int64_t n = frontier.back();
      frontier.pop_back();
      auto it = adj.find(n);
      if (it == adj.end()) continue;
      for (int64_t next : it->second) {
        if (reached.insert(next).second) frontier.push_back(next);
      }
    }
    for (int64_t target : reached) {
      RDFREL_RETURN_NOT_OK(
          t->Insert({sql::Value::Int(start), sql::Value::Int(target)})
              .status());
    }
    if (mod == sparql::PathMod::kStar && !reached.count(start)) {
      // Zero-length path: reflexive over the predicate's nodes. (Full
      // SPARQL 1.1 relates *every* graph term to itself; restricting to
      // the predicate's nodes keeps the table proportional to the
      // predicate and covers the practical queries.)
      RDFREL_RETURN_NOT_OK(
          t->Insert({sql::Value::Int(start), sql::Value::Int(start)})
              .status());
    }
  }
  RDFREL_RETURN_NOT_OK(t->CreateIndex(table + "_entry", "entry"));
  RDFREL_RETURN_NOT_OK(t->CreateIndex(table + "_val", "val"));
  closure_cache_.emplace(key, table);
  return table;
}

Status RdfStore::PreparePaths(const sparql::Query& query) {
  std::vector<const sparql::TriplePattern*> triples;
  query.where->CollectTriples(&triples);
  for (const auto* t : triples) {
    if (t->path_mod == sparql::PathMod::kNone) continue;
    if (t->predicate.is_var) {
      return Status::Unsupported("variable predicate in property path");
    }
    RDFREL_RETURN_NOT_OK(
        EnsureClosureTable(t->predicate.term, t->path_mod).status());
  }
  return Status::OK();
}

Result<translate::TranslatedQuery> RdfStore::Translate(
    const sparql::Query& query, const QueryOptions& opts,
    Explanation* explain) const {
  OptimizerInputs in;
  in.stats = &stats_;
  in.dict = &dict_;
  in.spill = [this](const sparql::TriplePattern& t, opt::AccessMethod m) {
    if (t.predicate.is_var) return true;
    uint64_t pid = dict_.Lookup(t.predicate.term);
    const auto& spilled = m == opt::AccessMethod::kAco
                              ? schema_->spilled_reverse()
                              : schema_->spilled_direct();
    return spilled.count(pid) > 0;
  };
  in.verify.dict = &dict_;
  in.verify.direct = direct_.get();
  in.verify.reverse = reverse_.get();
  in.verify.k_direct = schema_->config().k_direct;
  in.verify.k_reverse = schema_->config().k_reverse;

  // Look up the pre-materialized closure tables for transitive
  // property-path triples (see PreparePaths).
  std::map<int, std::string> closure_tables;
  {
    std::vector<const sparql::TriplePattern*> triples;
    query.where->CollectTriples(&triples);
    for (const auto* t : triples) {
      if (t->path_mod == sparql::PathMod::kNone) continue;
      if (t->predicate.is_var) {
        return Status::Unsupported("variable predicate in property path");
      }
      uint64_t pid = dict_.Lookup(t->predicate.term);
      auto key = std::make_pair(pid, static_cast<int>(t->path_mod));
      auto it = closure_cache_.find(key);
      if (it == closure_cache_.end()) {
        return Status::Internal(
            "closure table not materialized before translation");
      }
      closure_tables.emplace(t->id, it->second);
    }
  }

  translate::StoreContext ctx;
  ctx.schema = schema_.get();
  ctx.direct_mapping = direct_.get();
  ctx.reverse_mapping = reverse_.get();
  ctx.dict = &dict_;
  ctx.lex_table = lex_table_;
  ctx.closure_tables = &closure_tables;
  auto build = [&ctx](const sparql::Query& q, const opt::ExecNode& plan) {
    return translate::BuildSqlFull(q, plan, ctx);
  };
  return TranslateQuery(query, in, opts, build, explain);
}

bool RdfStore::IsDerivedTable(const std::string& table) const {
  for (const auto& [key, name] : closure_cache_) {
    if (name == table) return true;
  }
  return false;
}

Result<ResultSet> RdfStore::QueryParsed(const sparql::Query& query,
                                        const QueryOptions& opts) {
  CollectingSink sink;
  RDFREL_RETURN_NOT_OK(
      WithTranslation(query, opts, nullptr, [&](translate::TranslatedQuery tq) {
        return ExecuteDecodedSqlStreaming(&db_, tq.sql, query, dict_,
                                          tq.post_filters, tq.post_filter_vars,
                                          opts, sink);
      }));
  return sink.TakeResult();
}

Status RdfStore::InvalidateAfterWrite() {
  // Translated plans may embed closure-table names and spill-set decisions
  // that a write can change, so the whole cache is dropped; closure tables
  // are rebuilt lazily by the next property-path query.
  for (const auto& [key, table] : closure_cache_) {
    RDFREL_RETURN_NOT_OK(db_.catalog().DropTable(table));
  }
  closure_cache_.clear();
  plan_cache_.Clear();
  return Status::OK();
}

Status RdfStore::ApplyDelete(const rdf::Triple& triple) {
  rdf::EncodedTriple et;
  et.subject = dict_.Lookup(triple.subject);
  et.predicate = dict_.Lookup(triple.predicate);
  et.object = dict_.Lookup(triple.object);
  if (et.subject == 0 || et.predicate == 0 || et.object == 0) {
    return Status::NotFound("triple not present");
  }
  RDFREL_RETURN_NOT_OK(loader_->DeleteTriple(dict_, et));
  stats_.RemoveTriple(et);
  return Status::OK();
}

Status RdfStore::ApplyInsert(const rdf::Triple& triple) {
  rdf::EncodedTriple et;
  et.subject = dict_.Encode(triple.subject);
  et.predicate = dict_.Encode(triple.predicate);
  et.object = dict_.Encode(triple.object);
  RDFREL_RETURN_NOT_OK(loader_->InsertTriple(dict_, et));
  stats_.AddTriple(et);
  return Status::OK();
}

Status RdfStore::MutateBatch(persist::WalRecordType type,
                             const std::vector<rdf::Triple>& triples) {
  Status apply_status;
  uint64_t wait_lsn = 0;
  std::shared_ptr<persist::PersistenceManager> wal;
  {
    util::WriterLock lock(&mutex_);
    std::vector<rdf::Triple> applied;
    applied.reserve(triples.size());
    for (const auto& t : triples) {
      Status s = type == persist::WalRecordType::kInsertBatch
                     ? ApplyInsert(t)
                     : ApplyDelete(t);
      if (!s.ok()) {
        apply_status = s;
        break;
      }
      applied.push_back(t);
    }
    if (!applied.empty()) {
      Status inv = InvalidateAfterWrite();
      if (apply_status.ok()) apply_status = inv;
      if (persist_ != nullptr) {
        // Log exactly the applied prefix: memory and the durable log never
        // disagree about which triples a batch contributed.
        auto lsn = persist_->LogRecordAsync(
            type, persist::EncodeTripleBatch(applied));
        if (!lsn.ok()) return lsn.status();
        wait_lsn = *lsn;
        wal = persist_;
      }
    }
  }
  // Durability wait happens outside the writer lock so concurrent
  // committers can share one group-commit fsync; `wal` keeps the manager
  // alive should Close detach it meanwhile.
  if (wal != nullptr) RDFREL_RETURN_NOT_OK(wal->WaitDurable(wait_lsn));
  return apply_status;
}

Status RdfStore::Delete(const rdf::Triple& triple) {
  return MutateBatch(persist::WalRecordType::kDeleteBatch, {triple});
}

Status RdfStore::Insert(const rdf::Triple& triple) {
  return MutateBatch(persist::WalRecordType::kInsertBatch, {triple});
}

Status RdfStore::InsertBatch(const std::vector<rdf::Triple>& triples) {
  return MutateBatch(persist::WalRecordType::kInsertBatch, triples);
}

Status RdfStore::DeleteBatch(const std::vector<rdf::Triple>& triples) {
  return MutateBatch(persist::WalRecordType::kDeleteBatch, triples);
}

Status RdfStore::EncodeBackendSection(std::string* out) const {
  std::string& b = *out;
  const schema::Db2RdfConfig& cfg = schema_->config();
  persist::PutU32(&b, cfg.k_direct);
  persist::PutU32(&b, cfg.k_reverse);
  persist::PutString(&b, cfg.prefix);
  persist::PutU8(&b, 1);  // index flag: the four tables are always indexed
  RDFREL_RETURN_NOT_OK(persist::EncodeMapping(&b, *direct_));
  RDFREL_RETURN_NOT_OK(persist::EncodeMapping(&b, *reverse_));
  persist::PutI64(&b, schema_->next_lid());
  for (const auto* set :
       {&schema_->spilled_direct(), &schema_->spilled_reverse(),
        &schema_->multivalued_direct(), &schema_->multivalued_reverse()}) {
    persist::PutU64(&b, set->size());
    for (uint64_t pid : *set) persist::PutU64(&b, pid);
  }
  persist::PutString(&b, lex_table_);
  persist::PutU64(&b, load_stats_.triples);
  persist::PutU64(&b, load_stats_.dph_rows);
  persist::PutU64(&b, load_stats_.rph_rows);
  persist::PutU64(&b, load_stats_.dph_spill_rows);
  persist::PutU64(&b, load_stats_.rph_spill_rows);
  persist::PutU64(&b, load_stats_.ds_rows);
  persist::PutU64(&b, load_stats_.rs_rows);
  return Status::OK();
}

Status RdfStore::DecodeBackendSection(persist::ByteReader* in) {
  persist::ByteReader& r = *in;
  schema::Db2RdfConfig cfg;
  RDFREL_ASSIGN_OR_RETURN(cfg.k_direct, r.ReadU32());
  RDFREL_ASSIGN_OR_RETURN(cfg.k_reverse, r.ReadU32());
  RDFREL_ASSIGN_OR_RETURN(std::string_view prefix, r.ReadString());
  cfg.prefix = std::string(prefix);
  RDFREL_ASSIGN_OR_RETURN(uint8_t index_flag, r.ReadU8());
  if (index_flag != 1) {
    return Status::DataLoss("index flag " + std::to_string(index_flag) +
                            " in a DB2RDF section (expected 1)");
  }
  RDFREL_ASSIGN_OR_RETURN(direct_, persist::DecodeMapping(&r));
  RDFREL_ASSIGN_OR_RETURN(reverse_, persist::DecodeMapping(&r));
  RDFREL_ASSIGN_OR_RETURN(int64_t next_lid, r.ReadI64());
  RDFREL_ASSIGN_OR_RETURN(schema_, schema::Db2RdfSchema::Attach(&db_, cfg));
  schema_->set_next_lid(next_lid);
  for (auto* set : {&schema_->spilled_direct(), &schema_->spilled_reverse(),
                    &schema_->multivalued_direct(),
                    &schema_->multivalued_reverse()}) {
    RDFREL_ASSIGN_OR_RETURN(uint64_t n, r.ReadU64());
    for (uint64_t i = 0; i < n; ++i) {
      RDFREL_ASSIGN_OR_RETURN(uint64_t pid, r.ReadU64());
      set->insert(pid);
    }
  }
  RDFREL_ASSIGN_OR_RETURN(std::string_view lex, r.ReadString());
  lex_table_ = std::string(lex);
  RDFREL_ASSIGN_OR_RETURN(load_stats_.triples, r.ReadU64());
  RDFREL_ASSIGN_OR_RETURN(load_stats_.dph_rows, r.ReadU64());
  RDFREL_ASSIGN_OR_RETURN(load_stats_.rph_rows, r.ReadU64());
  RDFREL_ASSIGN_OR_RETURN(load_stats_.dph_spill_rows, r.ReadU64());
  RDFREL_ASSIGN_OR_RETURN(load_stats_.rph_spill_rows, r.ReadU64());
  RDFREL_ASSIGN_OR_RETURN(load_stats_.ds_rows, r.ReadU64());
  RDFREL_ASSIGN_OR_RETURN(load_stats_.rs_rows, r.ReadU64());
  loader_ = std::make_unique<schema::Loader>(schema_.get(), direct_, reverse_);
  return Status::OK();
}

Status RdfStore::ReplayWal(const std::vector<persist::WalRecord>& records) {
  // Dictionary Encode assigns insertion-order ids, so term-form replay
  // reproduces a consistent id assignment deterministically.
  for (const auto& rec : records) {
    RDFREL_ASSIGN_OR_RETURN(std::vector<rdf::Triple> batch,
                            persist::DecodeTripleBatch(rec.payload));
    auto type = static_cast<persist::WalRecordType>(rec.type);
    for (const auto& t : batch) {
      Status s = type == persist::WalRecordType::kInsertBatch
                     ? ApplyInsert(t)
                     : type == persist::WalRecordType::kDeleteBatch
                           ? ApplyDelete(t)
                           : Status::DataLoss("unknown WAL record type " +
                                              std::to_string(rec.type));
      if (!s.ok()) {
        return Status::DataLoss("WAL replay failed at LSN " +
                                std::to_string(rec.lsn) + ": " +
                                s.ToString());
      }
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<RdfStore>> RdfStore::OpenFromPlan(
    persist::RecoveryPlan plan, const PersistOptions& persist_opts) {
  auto store = std::unique_ptr<RdfStore>(new RdfStore());
  RDFREL_RETURN_NOT_OK(store->Recover(std::move(plan), persist_opts));
  return store;
}

Result<std::unique_ptr<RdfStore>> RdfStore::Open(
    const std::string& dir, const PersistOptions& persist_opts) {
  RDFREL_ASSIGN_OR_RETURN(persist::RecoveryPlan plan,
                          ScanForRecovery(dir, persist_opts));
  return OpenFromPlan(std::move(plan), persist_opts);
}

}  // namespace rdfrel::store
