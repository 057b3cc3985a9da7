// A minimal interactive shell over the statdb public API — the analyst-
// facing surface the paper imagines a statistical package exposing.
//
//   $ ./statdb_shell
//   statdb> load census 10000
//   statdb> create v census incremental
//   statdb> query v median INCOME
//   statdb> update v INCOME missing where INCOME > 5000000
//   statdb> summary v
//   statdb> rollback v 0
//
// Type `help` for the full command list. Reads stdin; EOF exits.

#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/db_auditor.h"
#include "core/dbms.h"
#include "relational/datagen.h"
#include "session/session.h"

namespace {

using namespace statdb;

std::vector<std::string> Tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

void PrintHelp() {
  std::cout <<
      "commands:\n"
      "  load <name> <rows> [seed]          generate+load census microdata"
      " onto tape\n"
      "  create <view> <source> [policy]    materialize a view"
      " (incremental|invalidate|eager)\n"
      "  views                              list views\n"
      "  query <view> <fn> <attr> [k=v...]  e.g. query v quantile INCOME"
      " p=0.95\n"
      "  queryp <view> <fn> <attr> [workers] parallel chunked scan"
      " (default 4 workers)\n"
      "  biv <view> <fn> <a> <b>            correlation|covariance|"
      "regression|chi2_independence\n"
      "  update <view> <attr> <expr> where <attr2> <op> <num>\n"
      "      expr: 'missing' or 'scale:<factor>'; op: < <= > >= = !=\n"
      "  derive <view> <name> log <attr>    derived column log(attr)\n"
      "  derive <view> <name> resid <x> <y> regression residual column\n"
      "  history <view>                     show the update log\n"
      "  rollback <view> <version>          undo to a version\n"
      "  summary <view>                     dump the Summary Database\n"
      "  explain <view> <fn> <attr> [workers] trace one query's phases"
      " (EXPLAIN)\n"
      "  metrics                            DumpMetrics() JSON (cache/"
      "pool/device/registry)\n"
      "  top [n]                            workload profiler heatmaps"
      " (§4.3 advice)\n"
      "  flight [n]                         last n flight-recorder events"
      " (default 20)\n"
      "  timeseries                         metric snapshot deltas + rates"
      " (JSON)\n"
      "  audit                              fsck: structural + summary-"
      "oracle audit\n"
      "  io                                 simulated device statistics\n"
      "  session open <label>               open a snapshot-pinned analyst"
      " session\n"
      "  session query <id> <view> <fn> <attr>  query at the session's"
      " pinned snapshot\n"
      "  session list | session close <id>  inspect / close sessions\n"
      "  session stats <id>                 one session's metric scope\n"
      "  slow [on [ms] | off]               slow-query log: dump / arm"
      " capture\n"
      "  slo                                per-query-class SLO burn"
      " (JSON)\n"
      "  trace [id]                         Chrome trace-event JSON"
      " (chrome://tracing)\n"
      "  help | quit\n";
}

Result<ExprPtr> ParseComparison(const std::string& attr,
                                const std::string& op,
                                const std::string& num) {
  double v;
  try {
    v = std::stod(num);
  } catch (...) {
    return InvalidArgumentError("bad number: " + num);
  }
  ExprPtr lhs = Col(attr);
  ExprPtr rhs = Lit(v);
  if (op == "<") return Lt(lhs, rhs);
  if (op == "<=") return Le(lhs, rhs);
  if (op == ">") return Gt(lhs, rhs);
  if (op == ">=") return Ge(lhs, rhs);
  if (op == "=") return Eq(lhs, rhs);
  if (op == "!=") return Ne(lhs, rhs);
  return InvalidArgumentError("bad operator: " + op);
}

const char* SourceName(AnswerSource s) {
  switch (s) {
    case AnswerSource::kCacheHit: return "cache";
    case AnswerSource::kStaleCacheHit: return "stale-cache";
    case AnswerSource::kInferred: return "inferred";
    case AnswerSource::kComputed: return "computed";
  }
  return "?";
}

class Shell {
 public:
  Shell() {
    (void)storage_.AddDevice("tape", DeviceCostModel::Tape(), 1024);
    (void)storage_.AddDevice("disk", DeviceCostModel::Disk(), 16384);
    dbms_ = std::make_unique<StatisticalDbms>(&storage_);
  }

  void Run() {
    std::cout << "statdb shell — 'help' for commands\n";
    std::string line;
    while (std::cout << "statdb> " && std::getline(std::cin, line)) {
      std::vector<std::string> t = Tokenize(line);
      if (t.empty()) continue;
      if (t[0] == "quit" || t[0] == "exit") break;
      Status s = Dispatch(t);
      if (!s.ok()) std::cout << "error: " << s.ToString() << "\n";
    }
  }

 private:
  Status Dispatch(const std::vector<std::string>& t) {
    const std::string& cmd = t[0];
    if (cmd == "help") {
      PrintHelp();
      return Status::OK();
    }
    if (cmd == "load") return CmdLoad(t);
    if (cmd == "create") return CmdCreate(t);
    if (cmd == "views") return CmdViews();
    if (cmd == "query") return CmdQuery(t);
    if (cmd == "queryp") return CmdQueryParallel(t);
    if (cmd == "biv") return CmdBivariate(t);
    if (cmd == "update") return CmdUpdate(t);
    if (cmd == "derive") return CmdDerive(t);
    if (cmd == "history") return CmdHistory(t);
    if (cmd == "rollback") return CmdRollback(t);
    if (cmd == "summary") return CmdSummary(t);
    if (cmd == "explain") return CmdExplain(t);
    if (cmd == "metrics") return CmdMetrics();
    if (cmd == "top") return CmdTop(t);
    if (cmd == "flight") return CmdFlight(t);
    if (cmd == "timeseries") return CmdTimeseries();
    if (cmd == "audit") return CmdAudit();
    if (cmd == "io") return CmdIo();
    if (cmd == "session") return CmdSession(t);
    if (cmd == "slow") return CmdSlow(t);
    if (cmd == "slo") return CmdSlo();
    if (cmd == "trace") return CmdTrace(t);
    return InvalidArgumentError("unknown command: " + cmd +
                                " (try 'help')");
  }

  Status CmdLoad(const std::vector<std::string>& t) {
    if (t.size() < 3) return InvalidArgumentError("load <name> <rows>");
    CensusOptions opts;
    opts.rows = std::stoull(t[2]);
    Rng rng(t.size() > 3 ? std::stoull(t[3]) : 42);
    STATDB_ASSIGN_OR_RETURN(Table data,
                            GenerateCensusMicrodata(opts, &rng));
    STATDB_RETURN_IF_ERROR(dbms_->LoadRawDataSet(t[1], data));
    std::cout << "loaded " << opts.rows << " rows onto tape as '" << t[1]
              << "'\n";
    return Status::OK();
  }

  Status CmdCreate(const std::vector<std::string>& t) {
    if (t.size() < 3) return InvalidArgumentError("create <view> <source>");
    MaintenancePolicy policy = MaintenancePolicy::kIncremental;
    if (t.size() > 3) {
      if (t[3] == "invalidate") policy = MaintenancePolicy::kInvalidate;
      else if (t[3] == "eager") policy = MaintenancePolicy::kEager;
      else if (t[3] != "incremental") {
        return InvalidArgumentError("bad policy: " + t[3]);
      }
    }
    ViewDefinition def;
    def.source = t[2];
    STATDB_ASSIGN_OR_RETURN(ViewCreation vc,
                            dbms_->CreateView(t[1], def, policy));
    std::cout << (vc.reused ? "reused existing view '" : "materialized '")
              << vc.name << "' ("
              << dbms_->GetView(vc.name).value()->num_rows()
              << " rows)\n";
    return Status::OK();
  }

  Status CmdViews() {
    for (const std::string& name : dbms_->ViewNames()) {
      const ViewRecord* rec = std::as_const(dbms_->management_db())
                                  .GetView(name)
                                  .value();
      std::cout << "  " << name << "  v" << rec->version << "  ["
                << MaintenancePolicyName(rec->policy) << "]  "
                << rec->canonical_definition << "\n";
    }
    return Status::OK();
  }

  Status CmdQuery(const std::vector<std::string>& t) {
    if (t.size() < 4) {
      return InvalidArgumentError("query <view> <fn> <attr> [k=v,...]");
    }
    FunctionParams params;
    if (t.size() > 4) {
      STATDB_ASSIGN_OR_RETURN(params, FunctionParams::Decode(t[4]));
    }
    STATDB_ASSIGN_OR_RETURN(QueryAnswer a,
                            dbms_->Query(t[1], t[2], t[3], params));
    std::cout << t[2] << "(" << t[3] << ") = " << a.result.ToString()
              << "   [" << SourceName(a.source) << "]\n";
    return Status::OK();
  }

  Status CmdQueryParallel(const std::vector<std::string>& t) {
    if (t.size() < 4) {
      return InvalidArgumentError("queryp <view> <fn> <attr> [workers]");
    }
    size_t workers = t.size() > 4 ? std::stoull(t[4]) : 4;
    STATDB_ASSIGN_OR_RETURN(
        QueryAnswer a, dbms_->QueryParallel(t[1], t[2], t[3], {}, {},
                                            workers));
    std::cout << t[2] << "(" << t[3] << ") = " << a.result.ToString()
              << "   [" << SourceName(a.source) << ", " << workers
              << " workers]\n";
    return Status::OK();
  }

  Status CmdBivariate(const std::vector<std::string>& t) {
    if (t.size() < 5) return InvalidArgumentError("biv <view> <fn> <a> <b>");
    STATDB_ASSIGN_OR_RETURN(
        QueryAnswer a, dbms_->QueryBivariate(t[1], t[2], t[3], t[4]));
    std::cout << t[2] << "(" << t[3] << ", " << t[4]
              << ") = " << a.result.ToString() << "   ["
              << SourceName(a.source) << "]\n";
    return Status::OK();
  }

  Status CmdUpdate(const std::vector<std::string>& t) {
    // update <view> <attr> <expr> where <attr2> <op> <num>
    if (t.size() < 8 || t[4] != "where") {
      return InvalidArgumentError(
          "update <view> <attr> <missing|scale:F> where <attr> <op> <num>");
    }
    UpdateSpec spec;
    spec.column = t[2];
    if (t[3] == "missing") {
      spec.value = nullptr;
    } else if (t[3].rfind("scale:", 0) == 0) {
      spec.value = Mul(Col(t[2]), Lit(std::stod(t[3].substr(6))));
    } else {
      return InvalidArgumentError("bad update expr: " + t[3]);
    }
    STATDB_ASSIGN_OR_RETURN(spec.predicate,
                            ParseComparison(t[5], t[6], t[7]));
    spec.description = "shell: update " + t[2];
    STATDB_ASSIGN_OR_RETURN(uint64_t n, dbms_->Update(t[1], spec));
    std::cout << n << " cells changed (view now v"
              << dbms_->GetView(t[1]).value()->version() << ")\n";
    return Status::OK();
  }

  Status CmdDerive(const std::vector<std::string>& t) {
    if (t.size() < 5) {
      return InvalidArgumentError(
          "derive <view> <name> log <attr> | resid <x> <y>");
    }
    if (t[3] == "log") {
      return dbms_->AddDerivedColumn(
          t[1], DerivedColumnDef::Local(t[2], Log(Col(t[4]))));
    }
    if (t[3] == "resid" && t.size() >= 6) {
      return dbms_->AddDerivedColumn(
          t[1], DerivedColumnDef::Residuals(t[2], t[4], t[5]));
    }
    return InvalidArgumentError("bad derive generator: " + t[3]);
  }

  Status CmdHistory(const std::vector<std::string>& t) {
    if (t.size() < 2) return InvalidArgumentError("history <view>");
    STATDB_ASSIGN_OR_RETURN(
        const ViewRecord* rec,
        std::as_const(dbms_->management_db()).GetView(t[1]));
    for (const UpdateLogEntry& e : rec->history.entries()) {
      std::cout << "  v" << e.version << ": " << e.description << " ("
                << CellCount(e.changes) << " cells)\n";
    }
    return Status::OK();
  }

  Status CmdRollback(const std::vector<std::string>& t) {
    if (t.size() < 3) return InvalidArgumentError("rollback <view> <ver>");
    STATDB_RETURN_IF_ERROR(dbms_->Rollback(t[1], std::stoull(t[2])));
    std::cout << "rolled back to v" << t[2] << "\n";
    return Status::OK();
  }

  Status CmdSummary(const std::vector<std::string>& t) {
    if (t.size() < 2) return InvalidArgumentError("summary <view>");
    STATDB_ASSIGN_OR_RETURN(SummaryDatabase * db,
                            dbms_->GetSummaryDb(t[1]));
    std::printf("  %-14s %-22s %s\n", "FUNCTION", "ATTRIBUTE(S)",
                "RESULT");
    return db->ForEach([](const SummaryEntry& e) {
      std::string attrs;
      for (size_t i = 0; i < e.key.attributes.size(); ++i) {
        if (i > 0) attrs += ",";
        attrs += e.key.attributes[i];
      }
      std::printf("  %-14s %-22s %s%s\n", e.key.function.c_str(),
                  attrs.c_str(), e.result.ToString().c_str(),
                  e.stale ? "  (stale)" : "");
      return Status::OK();
    });
  }

  Status CmdExplain(const std::vector<std::string>& t) {
    if (t.size() < 4) {
      return InvalidArgumentError("explain <view> <fn> <attr> [workers]");
    }
    size_t workers = t.size() > 4 ? std::stoull(t[4]) : 1;
    // Attach a sink just for this query; detach before returning so the
    // rest of the session stays on the zero-cost path.
    CollectingTraceSink sink;
    dbms_->set_trace_sink(&sink);
    Result<QueryAnswer> a =
        workers > 1 ? dbms_->QueryParallel(t[1], t[2], t[3], {}, {}, workers)
                    : dbms_->Query(t[1], t[2], t[3]);
    dbms_->set_trace_sink(nullptr);
    for (const QueryTrace& trace : sink.Take()) {
      std::cout << trace.ToText();
    }
    STATDB_RETURN_IF_ERROR(a.status());
    std::cout << t[2] << "(" << t[3] << ") = " << a.value().result.ToString()
              << "   [" << SourceName(a.value().source) << "]\n";
    return Status::OK();
  }

  Status CmdMetrics() {
    std::cout << dbms_->DumpMetrics() << "\n";
    return Status::OK();
  }

  Status CmdTop(const std::vector<std::string>& t) {
    size_t n = t.size() > 1 ? std::stoull(t[1]) : 10;
    std::cout << dbms_->workload_profiler().ReportText(n);
    return Status::OK();
  }

  Status CmdFlight(const std::vector<std::string>& t) {
    size_t n = t.size() > 1 ? std::stoull(t[1]) : 20;
    std::vector<FlightEvent> events = dbms_->flight().SnapshotEvents();
    size_t begin = events.size() > n ? events.size() - n : 0;
    std::printf("  %-8s %-10s %-16s %-28s %10s %10s %10s\n", "SEQ",
                "T_MS", "KIND", "LABEL", "A", "B", "X");
    for (size_t i = begin; i < events.size(); ++i) {
      const FlightEvent& e = events[i];
      std::printf("  %-8llu %-10.2f %-16s %-28s %10lld %10lld %10.3f\n",
                  static_cast<unsigned long long>(e.seq), e.t_ms,
                  FlightEventKindName(e.kind), e.label,
                  static_cast<long long>(e.a), static_cast<long long>(e.b),
                  e.x);
    }
    std::cout << "  (" << dbms_->flight().recorded()
              << " events recorded total; showing last "
              << (events.size() - begin) << ")\n";
    return Status::OK();
  }

  Status CmdTimeseries() {
    dbms_->TickTimeseries();
    std::cout << dbms_->timeseries().DumpJson() << "\n";
    return Status::OK();
  }

  Status CmdAudit() {
    if (dbms_ == nullptr) {
      return FailedPreconditionError("no database loaded (try 'load')");
    }
    std::string text;
    Status verdict = FsckDatabase(dbms_.get(), &text);
    std::cout << text << "\n";
    // A corrupt database is a finding for the analyst, not a shell error.
    if (!verdict.ok()) std::cout << "verdict: " << verdict.ToString() << "\n";
    return Status::OK();
  }

  Status CmdIo() {
    for (const char* dev : {"tape", "disk"}) {
      STATDB_ASSIGN_OR_RETURN(SimulatedDevice * d,
                              storage_.GetDevice(dev));
      std::cout << "  " << dev << ": " << d->stats().block_reads << "r/"
                << d->stats().block_writes << "w, "
                << d->stats().seeks << " seeks, "
                << d->stats().simulated_ms << " simulated ms\n";
    }
    return Status::OK();
  }

  // Multi-analyst sessions (DESIGN.md §15): each open session pins the
  // commit seq current at open; its queries keep answering from that
  // snapshot while updates/rollbacks land concurrently.
  Status CmdSession(const std::vector<std::string>& t) {
    if (t.size() < 2) {
      return InvalidArgumentError(
          "session open <label> | query <id> <view> <fn> <attr> | "
          "list | close <id>");
    }
    session::SessionManager* mgr;
    {
      STATDB_ASSIGN_OR_RETURN(mgr, dbms_->EnableSessions({}));
    }
    const std::string& sub = t[1];
    if (sub == "open") {
      if (t.size() < 3) return InvalidArgumentError("session open <label>");
      STATDB_ASSIGN_OR_RETURN(session::Session * s, mgr->Open(t[2]));
      session_handles_[s->id()] = s;
      std::cout << "session " << s->id() << " ('" << s->label()
                << "') pinned at seq " << s->pinned_seq() << "\n";
      return Status::OK();
    }
    if (sub == "list") {
      for (const auto& [id, s] : session_handles_) {
        const session::Session::Stats st = s->stats();
        std::cout << "  #" << id << "  " << s->label() << "  seq "
                  << s->pinned_seq() << "  " << st.queries << " queries ("
                  << st.cache_hits << " cached, " << st.snapshot_reads
                  << " snapshot reads)\n";
      }
      std::cout << "  head seq " << mgr->current_seq() << ", "
                << mgr->RetiredSnapshots() << " retired column snapshots\n";
      return Status::OK();
    }
    if (sub == "query") {
      if (t.size() < 6) {
        return InvalidArgumentError("session query <id> <view> <fn> <attr>");
      }
      auto it = session_handles_.find(std::stoull(t[2]));
      if (it == session_handles_.end()) {
        return NotFoundError("no open session #" + t[2]);
      }
      STATDB_ASSIGN_OR_RETURN(QueryAnswer a,
                              it->second->Query(t[3], t[4], t[5]));
      std::cout << t[4] << "(" << t[5] << ") @seq "
                << it->second->pinned_seq() << " = " << a.result.ToString()
                << "   [" << SourceName(a.source) << "]\n";
      return Status::OK();
    }
    if (sub == "stats") {
      if (t.size() < 3) return InvalidArgumentError("session stats <id>");
      auto it = session_handles_.find(std::stoull(t[2]));
      if (it == session_handles_.end()) {
        return NotFoundError("no open session #" + t[2]);
      }
      const session::Session* s = it->second;
      const session::Session::Stats st = s->stats();
      std::cout << "  session #" << s->id() << " ('" << s->label()
                << "') pinned at seq " << s->pinned_seq() << "\n"
                << "    queries        " << st.queries << "\n"
                << "    cache_hits     " << st.cache_hits << "\n"
                << "    live_reads     " << st.live_reads << "\n"
                << "    snapshot_reads " << st.snapshot_reads << "\n"
                << "    rows           " << st.rows << "\n"
                << "    pages          " << st.pages << "\n"
                << "    flushes        " << st.flushes << "\n"
                << "  (instruments: session." << s->label()
                << ".{queries,cache_hits,rows,pages,flushes,query_ms}; "
                   "global mirrors sessions.*)\n";
      return Status::OK();
    }
    if (sub == "close") {
      if (t.size() < 3) return InvalidArgumentError("session close <id>");
      auto it = session_handles_.find(std::stoull(t[2]));
      if (it == session_handles_.end()) {
        return NotFoundError("no open session #" + t[2]);
      }
      STATDB_RETURN_IF_ERROR(it->second->Close());
      session_handles_.erase(it);
      std::cout << "closed session " << t[2] << "\n";
      return Status::OK();
    }
    return InvalidArgumentError("unknown session subcommand: " + sub);
  }

  // Slow-query log: `slow on [ms]` arms capture (every later operation
  // above the threshold keeps its full trace + joined flight events),
  // `slow` dumps what was caught, `slow off` disarms.
  Status CmdSlow(const std::vector<std::string>& t) {
    if (t.size() > 1 && t[1] == "on") {
      if (t.size() > 2) {
        dbms_->flight().slow_log().set_threshold_ms(std::stod(t[2]));
      }
      dbms_->flight().slow_log().set_enabled(true);
      std::cout << "slow-query capture on (threshold "
                << dbms_->flight().slow_log().threshold_ms() << " ms)\n";
      return Status::OK();
    }
    if (t.size() > 1 && t[1] == "off") {
      dbms_->flight().slow_log().set_enabled(false);
      std::cout << "slow-query capture off\n";
      return Status::OK();
    }
    std::cout << dbms_->flight().slow_log().ToJson(
                     dbms_->flight().SnapshotEvents())
              << "\n";
    return Status::OK();
  }

  Status CmdSlo() {
    std::cout << dbms_->slo().DumpJson() << "\n";
    return Status::OK();
  }

  // Renders the slow log's traces + the flight window as Chrome
  // trace-event JSON; paste into chrome://tracing or Perfetto. With an
  // id, only that trace's spans and events are exported.
  Status CmdTrace(const std::vector<std::string>& t) {
    uint64_t id = t.size() > 1 ? std::stoull(t[1]) : 0;
    std::cout << dbms_->DumpChromeTrace(id) << "\n";
    return Status::OK();
  }

  StorageManager storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
  std::map<uint64_t, session::Session*> session_handles_;
};

}  // namespace

int main() {
  Shell shell;
  shell.Run();
  return 0;
}
