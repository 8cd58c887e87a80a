#include "client.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "analysis/diagnostics.h"
#include "common/hash.h"
#include "ddl/algebra_parser.h"
#include "obs/json.h"

namespace serena::e2e {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

/// Small dense per-thread index for the trace's `tid` column.
std::uint32_t ThreadIndex() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Rendered tuples, sorted: the canonical form of a relation's contents.
std::string Canonical(const XRelation& relation) {
  std::vector<std::string> rows;
  rows.reserve(relation.size());
  for (const Tuple& tuple : relation.tuples()) rows.push_back(tuple.ToString());
  std::sort(rows.begin(), rows.end());
  std::string text;
  for (const std::string& row : rows) {
    text += row;
    text += '\n';
  }
  return text;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

void Tracer::Record(Span span) {
  span.thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::BeginTick(Timestamp instant, std::uint64_t start_ns) {
  instant_ = instant;
  call_ns_ = start_ns;
  tick_id_ = NewId();
  sources_id_ = NewId();
  steps_id_ = NewId();
  begin_ns_ = sources_done_ns_ = first_step_ns_ = last_step_ns_ = end_ns_ = 0;
}

void Tracer::OnTickBegin(Timestamp) { begin_ns_ = NowNs(); }

void Tracer::OnSourcesDone(Timestamp now) {
  sources_done_ns_ = NowNs();
  set_device_parent(steps_id_, now);
}

void Tracer::OnQueryStep(Timestamp, const ContinuousQuery&, const Status&,
                         const XRelation*) {
  const std::uint64_t now = NowNs();
  if (first_step_ns_ == 0) {
    first_step_ns_ = now;
    set_device_parent(0, 0);
  }
  last_step_ns_ = now;
}

void Tracer::OnTickEnd(Timestamp) { end_ns_ = NowNs(); }

void Tracer::EndTick(std::uint64_t end_ns) {
  if (first_step_ns_ == 0) first_step_ns_ = last_step_ns_ = sources_done_ns_;
  Record(Span{"stream.tick", tick_id_, 0, instant_, call_ns_, end_ns});
  const auto phase = [&](const char* name, std::uint64_t id,
                         std::uint64_t start, std::uint64_t end) {
    Record(Span{name, id != 0 ? id : NewId(), tick_id_, instant_, start, end});
  };
  phase("stream.sources", sources_id_, begin_ns_, sources_done_ns_);
  phase("stream.steps", steps_id_, sources_done_ns_, first_step_ns_);
  phase("stream.merge", 0, first_step_ns_, last_step_ns_);
  phase("stream.prune", 0, last_step_ns_, end_ns_);
  phase("stream.post", 0, end_ns_, end_ns);
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t,
                                                          std::uint64_t>>>
      children;
  std::unordered_map<std::uint64_t, const char*> names;
  for (const Span& span : spans_) {
    names.emplace(span.id, span.name);
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  const auto add = [&](const std::string& key, std::uint64_t duration,
                       std::uint64_t self) {
    SpanTotals& total = totals[key];
    ++total.count;
    total.total_ns += duration;
    total.self_ns += self;
  };
  for (const Span& span : spans_) {
    const std::uint64_t duration = span.end_ns - span.start_ns;
    // Union of the children's intervals, clipped to this span.
    std::uint64_t covered = 0;
    const auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>>& parts =
          it->second;
      std::sort(parts.begin(), parts.end());
      std::uint64_t cursor = span.start_ns;
      for (const auto& [start, end] : parts) {
        const std::uint64_t from = std::max(start, cursor);
        const std::uint64_t to = std::min(end, span.end_ns);
        if (to > from) {
          covered += to - from;
          cursor = to;
        }
      }
    }
    const std::uint64_t self = duration - std::min(covered, duration);
    add(span.name, duration, self);
    const auto parent = names.find(span.parent);
    if (parent != names.end()) {
      add(std::string(span.name) + "@" + parent->second, duration, self);
    }
  }
  return totals;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t origin = UINT64_MAX;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  obs::JsonWriter json;
  json.BeginObject().Key("displayTimeUnit").Value("ms");
  json.Key("traceEvents").BeginArray();
  for (const Span& span : spans_) {
    const std::string_view name = span.name;
    json.BeginObject()
        .Key("name").Value(name)
        .Key("cat").Value(name.substr(0, name.find('.')))
        .Key("ph").Value("X")
        .Key("pid").Value(1)
        .Key("tid").Value(static_cast<std::int64_t>(span.thread))
        .Key("ts").Value(static_cast<double>(span.start_ns - origin) / 1e3)
        .Key("dur").Value(static_cast<double>(span.end_ns - span.start_ns) /
                          1e3)
        .Key("args").BeginObject()
        .Key("trace_id").Value(span.trace_id)
        .Key("span_id").Value(span.id)
        .Key("parent").Value(span.parent)
        .EndObject()
        .EndObject();
  }
  json.EndArray().EndObject();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json.str() << "\n";
  if (!out) return Status::Internal("cannot write trace ", path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

void Digest::Fold(const std::string& text) {
  state_ = Mix(state_ ^ StableHash(text));
}

void Digest::OnQueryStep(Timestamp now, const ContinuousQuery& query,
                         const Status& status, const XRelation* rows) {
  std::string text = "step " + query.name() + " " +
                     StatusCodeToString(status.code()) + "\n";
  if (rows != nullptr) text += Canonical(*rows);
  // This instant's actions, sorted: completion order under a parallel
  // pool is not observable.
  std::vector<std::string> actions;
  const auto& log = query.action_log();
  for (auto it = log.rbegin(); it != log.rend() && it->instant == now; ++it) {
    actions.push_back(it->action.ToString());
  }
  std::sort(actions.begin(), actions.end());
  for (const std::string& action : actions) text += "action " + action + "\n";
  Fold(text);
}

void Digest::AddRelation(const std::string& label, const XRelation& relation,
                         const ActionSet* actions) {
  Fold(label + "\n" + Canonical(relation) +
       (actions != nullptr ? actions->ToString() : std::string()));
}

void Digest::AddStatus(const std::string& label, const Status& status) {
  Fold(label + " " + StatusCodeToString(status.code()));
}

std::uint64_t Digest::EndInstant() {
  const std::uint64_t digest = state_;
  state_ = 0;
  return digest;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(Pems* pems, Tracer* tracer, Digest* digest, bool record_steps)
    : pems_(pems),
      tracer_(tracer),
      digest_(digest),
      record_steps_(record_steps) {}

Status Client::Count(const char* kind, const std::string& subject,
                     Status status) {
  ++attempted_;
  if (!status.ok()) ++failed_;
  if (digest_ != nullptr) {
    digest_->AddStatus(std::string(kind) + " " + subject, status);
  }
  return status;
}

std::uint64_t Client::result_rows() const {
  std::uint64_t rows = retired_rows_;
  for (const auto& [name, slot] : slots_) rows += slot->rows;
  return rows;
}

Status Client::Ddl(const std::string& ddl) {
  const std::uint64_t start = NowNs();
  Status status = pems_->tables().ExecuteDdl(ddl);
  const std::uint64_t end = NowNs();
  ddl_ns_ += end - start;
  Sample(&samples_.write, end - start);
  if (tracer_ != nullptr) {
    tracer_->Record(Span{"pems.ddl", tracer_->NewId(), 0, next_op_++, start,
                         end});
  }
  return Count("ddl", ddl, std::move(status));
}

Status Client::Register(const std::string& name, const std::string& algebra) {
  auto slot = std::make_shared<Slot>();
  ContinuousQuery::Sink sink = [slot, record = record_steps_](
                                   Timestamp, const XRelation& rows) {
    slot->rows += rows.size();
    if (record) slot->step_end_ns = NowNs();
  };
  const std::uint64_t start = NowNs();
  Status status =
      tracer_ != nullptr
          ? TracedRegister(name, algebra, std::move(sink))
          : pems_->queries().RegisterContinuous(name, algebra,
                                                std::move(sink));
  const std::uint64_t elapsed = NowNs() - start;
  register_ns_ += elapsed;
  Sample(&samples_.reg, elapsed);
  if (status.ok()) {
    slots_[name] = std::move(slot);
    ++standing_;
  }
  return Count("register", name, std::move(status));
}

Status Client::RegisterInto(const std::string& name,
                            const std::string& algebra,
                            const std::string& stream) {
  const std::uint64_t start = NowNs();
  Status status =
      pems_->queries().RegisterContinuousInto(name, algebra, stream);
  const std::uint64_t end = NowNs();
  register_ns_ += end - start;
  Sample(&samples_.reg, end - start);
  if (tracer_ != nullptr) {
    tracer_->Record(Span{"pems.register_into", tracer_->NewId(), 0,
                         next_op_++, start, end});
  }
  if (status.ok()) ++standing_;
  return Count("register_into", name, std::move(status));
}

Status Client::Unregister(const std::string& name) {
  const std::uint64_t start = NowNs();
  Status status = pems_->queries().UnregisterContinuous(name);
  const std::uint64_t end = NowNs();
  Sample(&samples_.unreg, end - start);
  if (tracer_ != nullptr) {
    tracer_->Record(Span{"pems.unregister", tracer_->NewId(), 0, next_op_++,
                         start, end});
  }
  if (status.ok()) {
    const auto it = slots_.find(name);
    if (it != slots_.end()) {
      retired_rows_ += it->second->rows;
      slots_.erase(it);
    }
    --standing_;
  }
  return Count("unregister", name, std::move(status));
}

Status Client::OneShot(const std::string& algebra) {
  const std::uint64_t start = NowNs();
  Result<QueryResult> result =
      tracer_ != nullptr ? TracedOneShot(algebra)
                         : pems_->queries().ExecuteOneShot(algebra);
  Sample(&samples_.oneshot, NowNs() - start);
  if (digest_ != nullptr && result.ok()) {
    digest_->AddRelation("oneshot " + algebra, result->relation,
                         &result->actions);
  }
  return Count("oneshot", algebra, result.status());
}

void Client::Tick() {
  const std::uint64_t start = NowNs();
  if (tracer_ != nullptr) {
    tracer_->BeginTick(pems_->env().clock().now() + 1, start);
  }
  pems_->Tick();
  const std::uint64_t end = NowNs();
  if (tracer_ != nullptr) tracer_->EndTick(end);
  Sample(&samples_.tick, end - start);
  attempted_ += standing_;
  failed_ += pems_->queries().executor().last_errors().size();
  if (record_steps_ && recording_) {
    // Under a serial pool queries step one after another, so the gaps
    // between consecutive sink calls are the individual step times.
    std::vector<std::uint64_t> marks = {pump_done_ns_};
    for (const auto& [name, slot] : slots_) {
      if (slot->step_end_ns >= start) marks.push_back(slot->step_end_ns);
    }
    std::sort(marks.begin(), marks.end());
    for (std::size_t i = 1; i < marks.size(); ++i) {
      samples_.step.push_back(marks[i] - marks[i - 1]);
    }
  }
}

// The traced variants below compose the same public calls
// `QueryProcessor::RegisterContinuous` / `ExecuteOneShot` make, in the
// same order, so each layer can be timed from outside.

template <typename Call>
auto Client::Layer(const TracedOp& op, const char* name,
                   std::vector<std::uint64_t>* samples, Call&& call,
                   std::uint64_t id) {
  const std::uint64_t start = NowNs();
  auto result = call();
  const std::uint64_t end = NowNs();
  if (samples != nullptr) samples->push_back(end - start);
  tracer_->Record(Span{name, id != 0 ? id : tracer_->NewId(), op.root, op.op,
                       start, end});
  return result;
}

Result<PlanPtr> Client::TracedPlan(const TracedOp& op,
                                   const std::string& algebra,
                                   AnalysisContext context) {
  QueryProcessor& queries = pems_->queries();
  if (pipeline_ == nullptr) {
    pipeline_ = std::make_unique<optimizer::Pipeline>(
        &pems_->env(), &pems_->streams(), queries.optimizer_options());
  }
  SERENA_ASSIGN_OR_RETURN(
      PlanPtr plan, Layer(op, "ddl.parse", &samples_.parse,
                          [&] { return ParseAlgebra(algebra); }));
  if (queries.analyze()) {
    SERENA_ASSIGN_OR_RETURN(
        std::vector<Diagnostic> diagnostics,
        Layer(op, "analysis.analyze", &samples_.analyze, [&] {
          return queries.analysis_session().AnalyzePlan(plan, context);
        }));
    if (!IsValid(diagnostics)) {
      return Status::InvalidArgument("plan rejected by static analysis:\n",
                                     RenderDiagnostics(diagnostics));
    }
  }
  optimizer::PipelineReport report;
  SERENA_ASSIGN_OR_RETURN(
      plan, Layer(op, "optimizer.optimize", &samples_.optimize, [&] {
        return pipeline_->Optimize(plan, context, &report);
      }));
  ++samples_.optimize_runs;
  if (report.changed()) ++samples_.optimize_changed;
  samples_.fragments += report.fragments;
  return plan;
}

Status Client::TracedRegister(const std::string& name,
                              const std::string& algebra,
                              ContinuousQuery::Sink sink) {
  const TracedOp op{tracer_->NewId(), next_op_++, NowNs()};
  Status status = [&]() -> Status {
    SERENA_ASSIGN_OR_RETURN(
        PlanPtr plan, TracedPlan(op, algebra, AnalysisContext::kContinuous));
    QueryProcessor& queries = pems_->queries();
    analysis::Session& session = queries.analysis_session();
    if (queries.analyze()) {
      session.mutable_options().source_fed_streams =
          queries.executor().SourceFedStreams();
      SERENA_ASSIGN_OR_RETURN(
          std::vector<Diagnostic> diagnostics,
          Layer(op, "analysis.lint_registration", &samples_.lint,
                [&] { return session.LintRegistration(name, plan, {}); }));
      if (!IsValid(diagnostics)) {
        return Status::InvalidArgument("continuous query '", name,
                                       "' rejected by static analysis:\n",
                                       RenderDiagnostics(diagnostics));
      }
    }
    return Layer(op, "stream.register", nullptr, [&] {
      auto query = std::make_shared<ContinuousQuery>(name, plan);
      query->set_sink(std::move(sink));
      Status registered = queries.executor().Register(std::move(query));
      if (registered.ok()) session.CommitQuery(name, plan, {});
      return registered;
    });
  }();
  tracer_->Record(
      Span{"pems.register", op.root, 0, op.op, op.start_ns, NowNs()});
  return status;
}

Result<QueryResult> Client::TracedOneShot(const std::string& algebra) {
  const TracedOp op{tracer_->NewId(), next_op_++, NowNs()};
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    SERENA_ASSIGN_OR_RETURN(
        PlanPtr plan, TracedPlan(op, algebra, AnalysisContext::kOneShot));
    const std::uint64_t execute = tracer_->NewId();
    tracer_->set_device_parent(execute, op.op);
    Result<QueryResult> executed = Layer(
        op, "algebra.execute", &samples_.execute,
        [&] { return Execute(plan, &pems_->env(), &pems_->streams()); },
        execute);
    tracer_->set_device_parent(0, 0);
    return executed;
  }();
  tracer_->Record(
      Span{"pems.oneshot", op.root, 0, op.op, op.start_ns, NowNs()});
  return result;
}

}  // namespace serena::e2e
