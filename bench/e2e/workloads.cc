#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "service/lambda_service.h"

namespace serena::e2e {
namespace {

// ---------------------------------------------------------------------------
// Seeded input derivation
// ---------------------------------------------------------------------------

/// Independent draw domains, so no two generated quantities share a
/// stream of draws.
enum Domain : std::uint64_t {
  kTelemetry = 1,
  kWatts,
  kTemps,
  kFleetRows,
  kFleetQueries,
  kProbes,
  kAlerts,
  kDevice,
  kEvents,
  kConsole,
  kCatalog,
};

/// The value at (domain, a, b) for this seed: the same coordinates always
/// give the same draw.
std::uint64_t Draw(std::uint64_t seed, Domain domain, std::uint64_t a,
                   std::uint64_t b = 0) {
  return Mix(Mix(Mix(seed ^ Mix(domain)) ^ a) ^ b);
}

/// The i-th independent value derived from one draw.
std::uint64_t Sub(std::uint64_t h, std::uint64_t i) { return Mix(h + i); }

/// A real in [0, 99.875], a multiple of 1/8: sums of such values are exact
/// in any order, so an aggregate agrees across plans and engines that
/// order its input differently.
double Real(std::uint64_t h) { return static_cast<double>(h % 800) / 8.0; }
std::int64_t Int(std::uint64_t h) { return static_cast<std::int64_t>(h % 100); }

int Scaled(int full, int scale, int minimum) {
  return std::max(minimum, full / std::max(1, scale));
}

constexpr const char* kAreas[] = {"office", "kitchen", "roof", "lobby",
                                  "garage", "corridor", "lab", "hall"};
constexpr std::uint64_t kAreaCount = 8;

std::string Area(std::uint64_t h) { return kAreas[h % kAreaCount]; }
std::string Id(const char* prefix, std::uint64_t i) {
  return prefix + std::to_string(i);
}
std::string Quote(const std::string& text) { return "'" + text + "'"; }

/// "(v1, v2, ...)": one VALUES group.
std::string Row(std::initializer_list<std::string> values) {
  std::string row = "(";
  for (const std::string& value : values) {
    if (row.size() > 1) row += ", ";
    row += value;
  }
  return row + ")";
}

/// One INSERT statement for all of `rows`.
std::string Insert(const std::string& relation,
                   const std::vector<std::string>& rows) {
  std::string ddl = "INSERT INTO " + relation + " VALUES ";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) ddl += ", ";
    ddl += rows[i];
  }
  return ddl + ";";
}

/// The instant whose input `--perturb` alters. Every verify prefix
/// covers it.
constexpr Timestamp kPerturbInstant = 6;

/// Gives a generated row (whose first attribute is `area`) an area no
/// other row has, so a standing query's result changes at that instant
/// (README.md names the query in each workload).
void Perturb(Tuple* row) { (*row)[0] = Value::String("perturbed"); }

// ---------------------------------------------------------------------------
// Pump: the workload's stream source
// ---------------------------------------------------------------------------

/// Appends the tuples `Generate` prepared before the tick. Generation
/// happens outside the timed region, so the tick's sources phase measures
/// appends only, and the tick measures creation-to-emission.
class Pump {
 public:
  Status Attach(Client& client, const std::vector<std::string>& streams) {
    client_ = &client;
    for (const std::string& name : streams) {
      SERENA_ASSIGN_OR_RETURN(XDRelation * stream,
                              client.pems().streams().GetStream(name));
      streams_.push_back(stream);
    }
    pending_.resize(streams_.size());
    client.pems().queries().executor().AddSource(
        [this](Timestamp now) { return Feed(now); }, streams);
    return Status::OK();
  }

  std::vector<Tuple>& rows(std::size_t stream) { return pending_[stream]; }
  std::uint64_t appended() const { return appended_; }

 private:
  Status Feed(Timestamp now) {
    const std::uint64_t start = NowNs();
    Status status;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      for (Tuple& tuple : pending_[i]) {
        Status appended = streams_[i]->Append(now, std::move(tuple));
        if (appended.ok()) {
          ++appended_;
        } else if (status.ok()) {
          status = std::move(appended);
        }
      }
      pending_[i].clear();
    }
    const std::uint64_t end = NowNs();
    client_->set_pump_done_ns(end);
    if (Tracer* tracer = client_->tracer()) {
      tracer->Record(Span{"stream.pump", tracer->NewId(),
                          tracer->sources_id(), now, start, end});
    }
    return status;
  }

  Client* client_ = nullptr;
  std::vector<XDRelation*> streams_;
  std::vector<std::vector<Tuple>> pending_;
  std::uint64_t appended_ = 0;
};

// ---------------------------------------------------------------------------
// Devices
// ---------------------------------------------------------------------------

/// How a device call behaves: emulated I/O sleeps a seeded latency (90%
/// 100 µs, 9% 1 ms, 1% 5 ms) without using the CPU and fails 1% of calls
/// with Unavailable; local devices answer at once and never fail.
enum class Io { kLocal, kEmulated };

std::chrono::microseconds Latency(std::uint64_t h) {
  const std::uint64_t bucket = Sub(h, 1) % 100;
  if (bucket < 90) return std::chrono::microseconds(100);
  if (bucket < 99) return std::chrono::microseconds(1000);
  return std::chrono::microseconds(5000);
}

bool InjectFailure(std::uint64_t h) { return Sub(h, 2) % 100 == 0; }

/// A benchmark-owned device implementing `prototype`. Its answer and its
/// behaviour are functions of (seed, device, instant, input), so every
/// engine configuration sees the same device.
Status AddDevice(Client& client, const std::string& id, std::uint64_t index,
                 const std::string& prototype, Io io, std::uint64_t seed,
                 DeviceCounters* counters,
                 std::function<Tuple(std::uint64_t)> answer) {
  SERENA_ASSIGN_OR_RETURN(PrototypePtr proto,
                          client.pems().env().GetPrototype(prototype));
  auto device = std::make_shared<LambdaService>(id);
  Client* owner = &client;
  device->AddMethod(
      proto, [owner, id, index, io, seed, counters, answer](
                 const Tuple& input, Timestamp now)
                 -> Result<std::vector<Tuple>> {
        Tracer* tracer = owner->tracer();
        const std::uint64_t start = tracer != nullptr ? NowNs() : 0;
        const std::uint64_t h = Draw(seed, kDevice, index ^ Mix(now),
                                     input.Hash());
        Result<std::vector<Tuple>> result = std::vector<Tuple>{answer(h)};
        if (io == Io::kEmulated) {
          std::this_thread::sleep_for(Latency(h));
          if (InjectFailure(h)) {
            counters->injected_failures.fetch_add(1,
                                                  std::memory_order_relaxed);
            result = Status::Unavailable("device ", id, " did not answer");
          }
        }
        if (tracer != nullptr) {
          tracer->Record(Span{"service.device", tracer->NewId(),
                              tracer->device_parent(), tracer->device_trace(),
                              start, NowNs()});
        }
        return result;
      });
  return client.pems().env().registry().Register(std::move(device));
}

// ---------------------------------------------------------------------------
// Console: one client's one-shot queries, table writes and query churn
// ---------------------------------------------------------------------------

/// One console client over catalogs of 8–2000 rows. A visit issues one
/// one-shot query from each of four template families (joins written in a
/// poor order, σ/π/aggregate, ∪/∖, β over local devices), one INSERT and
/// one DELETE on a relation those queries read (so its size stays put),
/// and one unregister plus one register of a standing query. Template
/// parameters come from small sets, so the operator statistics store
/// stops growing.
class Console {
 public:
  /// `events`: own an `events` stream with eight standing queries over it
  /// and churn seven of them (console_churn). Otherwise a visit registers
  /// one standing query over the catalogs and unregisters it again, so
  /// the host workload's ticks never step a console query.
  Console(const Params& params, bool events)
      : params_(params),
        events_(events),
        hosts_(Scaled(200, params.scale, 8)),
        jobs_(Scaled(2000, params.scale, 40)),
        owners_(Scaled(40, params.scale, 4)) {}

  int hosts() const { return hosts_; }

  /// Catalogs, the local devices and (console_churn) the events stream.
  Status Setup(Client& client, DeviceCounters* devices) {
    SERENA_RETURN_NOT_OK(client.Ddl(
        "PROTOTYPE getLevel() : (level REAL);"
        "EXTENDED RELATION sites (area STRING, floor INTEGER, "
        "alert_level INTEGER);"
        "EXTENDED RELATION hosts (host STRING, area STRING, rack STRING);"
        "EXTENDED RELATION jobs (job STRING, host STRING, prio INTEGER);"
        "EXTENDED RELATION owners (rack STRING, owner STRING);"
        "EXTENDED RELATION gauges (gauge SERVICE, area STRING, "
        "level REAL VIRTUAL) USING BINDING PATTERNS "
        "( getLevel[gauge]() : (level) );"));
    if (events_) {
      SERENA_RETURN_NOT_OK(
          client.Ddl("EXTENDED STREAM events (area STRING, host STRING, "
                     "reading REAL, seq INTEGER);"));
    }
    const std::uint64_t seed = params_.seed;
    std::vector<std::string> sites, hosts, jobs, owners, gauges;
    for (std::uint64_t i = 0; i < kAreaCount; ++i) {
      sites.push_back(Row({Quote(kAreas[i]), std::to_string(i % 5),
                           std::to_string(1 + i % 5)}));
      const std::string gauge = Id("g", i);
      SERENA_RETURN_NOT_OK(AddDevice(
          client, gauge, i, "getLevel", Io::kLocal, seed, devices,
          [](std::uint64_t h) { return Tuple{Value::Real(Real(h))}; }));
      gauges.push_back(Row({Quote(gauge), Quote(kAreas[i])}));
    }
    for (int i = 0; i < hosts_; ++i) {
      const std::uint64_t h = Draw(seed, kCatalog, 1, i);
      hosts.push_back(Row({Quote(Id("h", i)), Quote(Area(h)),
                           Quote(Id("r", Sub(h, 1) % owners_))}));
    }
    for (int i = 0; i < jobs_; ++i) jobs.push_back(JobRow(i));
    for (int i = 0; i < owners_; ++i) {
      owners.push_back(Row({Quote(Id("r", i)), Quote(Id("o", i % 5))}));
    }
    SERENA_RETURN_NOT_OK(client.Ddl(Insert("sites", sites)));
    SERENA_RETURN_NOT_OK(client.Ddl(Insert("hosts", hosts)));
    SERENA_RETURN_NOT_OK(client.Ddl(Insert("jobs", jobs)));
    SERENA_RETURN_NOT_OK(client.Ddl(Insert("owners", owners)));
    return client.Ddl(Insert("gauges", gauges));
  }

  /// console_churn's eight standing queries over `events`.
  Status RegisterStanding(Client& client) {
    for (int slot = 0; slot < kSlots; ++slot) {
      SERENA_RETURN_NOT_OK(client.Register(SlotName(slot), Standing(slot, 0)));
    }
    return Status::OK();
  }

  void Visit(Client& client) {
    const std::uint64_t visit = visits_++;
    Samples& samples = client.samples();

    const std::size_t oneshots = samples.oneshot.size();
    for (int family = 0; family < 4; ++family) {
      (void)client.OneShot(OneShot(family, visit));
    }
    MeanOfNewSamples(samples.oneshot, oneshots, &samples.oneshot_visit);

    const std::size_t writes = samples.write.size();
    (void)client.Ddl("INSERT INTO jobs VALUES " + JobRow(jobs_ + visit) + ";");
    (void)client.Ddl("DELETE FROM jobs WHERE job = " +
                     Quote(Id("j", visit)) + ";");
    MeanOfNewSamples(samples.write, writes, &samples.write_visit);

    if (events_) {
      const int slot = 1 + static_cast<int>(visit % (kSlots - 1));
      (void)client.Unregister(SlotName(slot));
      (void)client.Register(SlotName(slot), Standing(slot, visit + 1));
    } else {
      (void)client.Register(SlotName(0), Standing(0, visit));
      (void)client.Unregister(SlotName(0));
    }
  }

 private:
  static constexpr int kSlots = 8;
  static std::string SlotName(int slot) { return Id("watch", slot); }

  /// Row `i` of `jobs`: the initial rows and every console INSERT.
  std::string JobRow(std::uint64_t i) const {
    const std::uint64_t h = Draw(params_.seed, kCatalog, 2, i);
    return Row({Quote(Id("j", i)), Quote(Id("h", h % hosts_)),
                std::to_string(Int(Sub(h, 1)))});
  }

  static void MeanOfNewSamples(const std::vector<std::uint64_t>& all,
                               std::size_t from,
                               std::vector<std::uint64_t>* means) {
    if (all.size() <= from) return;  // Not recording.
    std::uint64_t sum = 0;
    for (std::size_t i = from; i < all.size(); ++i) sum += all[i];
    means->push_back(sum / (all.size() - from));
  }

  /// The `step`-th choice of parameter `id` among `n`: each parameter
  /// cycles through its choices in a phase the seed picks, so every seed
  /// runs the same mix of templates and the mix does not drift with it.
  std::uint64_t Cycle(std::uint64_t id, std::uint64_t step,
                      std::uint64_t n) const {
    return (Draw(params_.seed, kConsole, id) % n + step % n) % n;
  }

  std::string OneShot(int family, std::uint64_t visit) const {
    const std::uint64_t id = 10 * static_cast<std::uint64_t>(family);
    const std::string floor = std::to_string(Cycle(id + 1, visit, 5));
    const std::string prio =
        std::to_string(10 * (1 + Cycle(id + 2, visit, 9)));
    const std::string area = Quote(kAreas[Cycle(id + 3, visit, kAreaCount)]);
    const std::string rack = Quote(Id("r", Cycle(id + 4, visit, owners_)));
    switch (family) {
      case 0:  // 2-4-way joins, the big relations joined first.
        switch (visit % 3) {
          case 0:
            return "aggregate[rack; count() -> n](join(jobs, select[area = " +
                   area + "](hosts)))";
          case 1:
            return "aggregate[area; count() -> n](join(join(jobs, hosts), "
                   "select[floor >= " +
                   floor + "](sites)))";
          default:
            return "aggregate[owner; count() -> n](join(join(join(jobs, "
                   "hosts), owners), select[floor >= " +
                   floor + "](sites)))";
        }
      case 1:  // σ / π / aggregate.
        return visit % 2 == 0
                   ? "aggregate[host; count() -> n, max(prio) -> top]"
                     "(select[prio > " +
                         prio + "](jobs))"
                   : "project[host, rack](select[area = " + area +
                         "](hosts))";
      case 2:  // ∪ / ∖.
        return visit % 2 == 0
                   ? "union(project[area](select[floor > " + floor +
                         "](sites)), project[area](select[rack = " + rack +
                         "](hosts)))"
                   : "difference(project[host](select[prio > " + prio +
                         "](jobs)), project[host](select[area = " + area +
                         "](hosts)))";
      default:  // β over the local gauges.
        return "invoke[getLevel](join(gauges, select[floor >= " + floor +
               "](sites)))";
    }
  }

  std::string Standing(int slot, std::uint64_t variant) const {
    // The template family below is (slot + variant) % 4; windows and
    // areas step twice as fast, so they do not lock to a family.
    const std::uint64_t step = variant + static_cast<std::uint64_t>(slot);
    const std::uint64_t fast = step + variant;
    const std::string window = std::to_string(1 + Cycle(100, fast, 4));
    const std::string reading =
        std::to_string(10 * (1 + Cycle(101, step, 9)));
    const std::string floor = std::to_string(Cycle(102, step, 5));
    const std::string prio = std::to_string(10 * (1 + Cycle(103, step, 9)));
    const std::string area = Quote(kAreas[Cycle(104, fast, kAreaCount)]);
    if (!events_) {
      return "project[host, prio](join(select[prio > " + prio +
             "](jobs), select[area = " + area + "](hosts)))";
    }
    if (slot == 0) return "aggregate[area; count() -> n](window[2](events))";
    switch ((slot + variant) % 4) {
      case 0:
        return "select[reading > " + reading + "](window[" + window +
               "](events))";
      case 1:
        return "project[area, reading](select[reading < " + reading +
               "](window[" + window + "](events)))";
      case 2:
        return "join(select[reading > " + reading + "](window[" + window +
               "](events)), select[floor >= " + floor + "](sites))";
      default:
        return "aggregate[host; max(reading) -> peak](join(window[" + window +
               "](events), hosts))";
    }
  }

  Params params_;
  bool events_;
  int hosts_;
  int jobs_;
  int owners_;
  std::uint64_t visits_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A workload whose console visits are interleaved with its measured
/// ticks.
class BaseWorkload : public Workload {
 public:
  explicit BaseWorkload(const Params& params, bool events = false)
      : params_(params), console_(params, events) {}

  bool console_between_ticks() const override { return false; }
  Status SetupConsole(Client& client) override {
    return console_.Setup(client, &devices_);
  }
  void VisitConsole(Client& client) override { console_.Visit(client); }
  std::uint64_t events() const override { return pump_.appended(); }

 protected:
  bool PerturbAt(Timestamp t) const {
    return params_.perturb && t == kPerturbInstant;
  }
  int Scaled(int full, int minimum) const {
    return e2e::Scaled(full, params_.scale, minimum);
  }

  Params params_;
  Console console_;
  Pump pump_;
};

/// High-volume algebra: deep σ chains, σ/π/ρ, window⋈catalog, aggregates
/// and a badly ordered 3-way join over 1080 rows per instant. No service
/// calls; observability is a small share of each tick.
class Firehose : public BaseWorkload {
 public:
  explicit Firehose(const Params& params) : BaseWorkload(params) {}

  Status Setup(Client& client) override {
    std::string ddl =
        "EXTENDED RELATION zones (area STRING, floor INTEGER, "
        "alert_level INTEGER);"
        "INSERT INTO zones VALUES ('office', 1, 2), ('kitchen', 1, 3), "
        "('roof', 4, 5), ('lobby', 0, 1), ('garage', 0, 4), "
        "('corridor', 2, 1), ('lab', 3, 5), ('hall', 2, 2);"
        "EXTENDED RELATION hot_zones (area STRING);"
        "INSERT INTO hot_zones VALUES ('roof');"
        "EXTENDED STREAM telemetry (area STRING, host STRING, rack STRING, "
        "load REAL, temperature REAL, battery INTEGER);"
        "EXTENDED STREAM tel_watts (area STRING, watts REAL);"
        "EXTENDED STREAM tel_temps (area STRING, temp REAL);";
    SERENA_RETURN_NOT_OK(client.Ddl(ddl));
    SERENA_RETURN_NOT_OK(
        pump_.Attach(client, {"telemetry", "tel_watts", "tel_temps"}));
    // The two deep chains of examples/scripts/telemetry_firehose.serena.
    SERENA_RETURN_NOT_OK(client.Register(
        "overheat_alerts",
        "select[load < 99.9](select[battery < 100](select[battery > 0]("
        "select[temperature > 0.05](select[load > 0.05](select[temperature "
        "< 99.9](select[load < 99.5](select[battery < 99](select[battery > "
        "1](select[load > 0.1](select[load < 99.0](select[temperature > "
        "98.5](window[8](telemetry)))))))))))))"));
    SERENA_RETURN_NOT_OK(client.Register(
        "battery_alerts",
        "select[temperature < 99.9](select[temperature > 0.05](select[load "
        "> 0.05](select[load < 99.9](select[battery < 100](select[load > "
        "0.1](select[load < 99.5](select[temperature > 0.1](select["
        "temperature < 99.5](select[battery < 1](window[8](telemetry)))))))"
        "))))"));
    SERENA_RETURN_NOT_OK(client.Register(
        "hot_hosts",
        "rename[load -> cpu](project[area, host, load](select[battery > 10]("
        "select[temperature < 90.0](select[temperature > 5.0](select[load > "
        "10.0](window[4](telemetry)))))))"));
    SERENA_RETURN_NOT_OK(client.Register(
        "zone_pressure",
        "select[alert_level > 2](join(select[load > 25.0](window[4]("
        "telemetry)), zones))"));
    SERENA_RETURN_NOT_OK(client.Register(
        "area_load",
        "aggregate[area; avg(load) -> mean_load, count() -> n](select[load > "
        "5.0](select[battery > 1](window[4](telemetry))))"));
    // join_order_stress's naive order: the two windows first, the 1-row
    // catalog last.
    return client.Register(
        "zone_stress",
        "aggregate[area; count() -> n, sum(watts) -> total_watts](join(join("
        "window[4](tel_watts), window[4](tel_temps)), hot_zones))");
  }

  void Generate(Timestamp t) override {
    const std::uint64_t seed = params_.seed;
    std::vector<Tuple>& telemetry = pump_.rows(0);
    const int rows = Scaled(600, 12);
    for (int k = 0; k < rows; ++k) {
      const std::uint64_t h = Draw(seed, kTelemetry, t, k);
      telemetry.push_back(Tuple{
          Value::String(Area(h)), Value::String(Id("host", Sub(h, 1) % 64)),
          Value::String(Id("r", Sub(h, 2) % 16)), Value::Real(Real(Sub(h, 3))),
          Value::Real(Real(Sub(h, 4))), Value::Int(Int(Sub(h, 5)))});
    }
    if (PerturbAt(t)) {
      // A row area_load counts: load > 5.0 and battery > 1.
      for (Tuple& row : telemetry) {
        if (row[3].real_value() > 5.0 && row[5].int_value() > 1) {
          Perturb(&row);
          break;
        }
      }
    }
    const int side = Scaled(240, 4);
    for (int k = 0; k < side; ++k) {
      const std::uint64_t w = Draw(seed, kWatts, t, k);
      pump_.rows(1).push_back(
          Tuple{Value::String(Area(w)), Value::Real(Real(Sub(w, 1)))});
      const std::uint64_t c = Draw(seed, kTemps, t, k);
      pump_.rows(2).push_back(
          Tuple{Value::String(Area(c)), Value::Real(Real(Sub(c, 1)))});
    }
  }

  int warmup_instants() const override { return 24; }
  int verify_instants() const override { return params_.scale > 1 ? 10 : 24; }
};

/// Hundreds of tiny standing queries over many low-rate streams: per-step
/// fixed costs dominate, not the algebra.
class QueryFleet : public BaseWorkload {
 public:
  explicit QueryFleet(const Params& params)
      : BaseWorkload(params),
        streams_(Scaled(32, 4)),
        queries_(Scaled(512, 10)) {}

  Status Setup(Client& client) override {
    std::string ddl =
        "EXTENDED RELATION zones (area STRING, floor INTEGER, "
        "alert_level INTEGER);"
        "INSERT INTO zones VALUES ('office', 1, 2), ('kitchen', 1, 3), "
        "('roof', 4, 5), ('lobby', 0, 1), ('garage', 0, 4), "
        "('corridor', 2, 1), ('lab', 3, 5), ('hall', 2, 2);";
    std::vector<std::string> names;
    for (int s = 0; s < streams_; ++s) {
      names.push_back(StreamName(s));
      ddl += "EXTENDED STREAM " + names.back() +
             " (area STRING, host STRING, load REAL, battery INTEGER);";
    }
    SERENA_RETURN_NOT_OK(client.Ddl(ddl));
    SERENA_RETURN_NOT_OK(pump_.Attach(client, names));

    // The three self_monitoring queries over the runtime's own health
    // (timing columns projected away: they are not deterministic).
    SERENA_RETURN_NOT_OK(client.Register(
        "failing", "project[name, streak](select[streak >= 3]"
                   "(sys_query_health))"));
    SERENA_RETURN_NOT_OK(client.Register(
        "stalled", "project[name, lag](select[lag >= 3](sys_query_health))"));
    SERENA_RETURN_NOT_OK(client.Register(
        "stepping", "project[name, steps](select[steps >= 0]"
                    "(sys_query_health))"));
    // One derived-stream pair.
    SERENA_RETURN_NOT_OK(client.RegisterInto(
        "fleet_feed", "select[load > 50.0](window[1](s00))", "fleet_hot"));
    SERENA_RETURN_NOT_OK(client.Register(
        "fleet_hot_count", "aggregate[area; count() -> n](window[4](fleet_hot))"));
    // q0 is fixed: the perturbed row of s00 must show in it.
    SERENA_RETURN_NOT_OK(
        client.Register("q0", "aggregate[area; count() -> n](window[1](s00))"));
    // The rest cycle through four shapes, every stream, four window
    // lengths and nine thresholds; the seed picks the phase of each cycle,
    // so every seed registers the same mix.
    const std::uint64_t window_phase = Draw(params_.seed, kFleetQueries, 1);
    const std::uint64_t threshold_phase = Draw(params_.seed, kFleetQueries, 2);
    for (int i = 1; i < queries_ - 5; ++i) {
      const std::string window =
          "window[" + std::to_string(1 + (window_phase + i) % 4) + "](" +
          StreamName(i % streams_) + ")";
      const std::string threshold =
          std::to_string(10 * (1 + (threshold_phase + i) % 9));
      std::string algebra;
      switch ((i / streams_) % 4) {
        case 0:
          algebra = "select[load > " + threshold + "](" + window + ")";
          break;
        case 1:
          algebra = "project[area, load](select[battery > " + threshold +
                    "](" + window + "))";
          break;
        case 2:
          algebra = "aggregate[area; count() -> n](" + window + ")";
          break;
        default:
          algebra = "join(select[load > " + threshold + "](" + window +
                    "), zones)";
      }
      SERENA_RETURN_NOT_OK(client.Register(Id("q", i), algebra));
    }
    return Status::OK();
  }

  void Generate(Timestamp t) override {
    for (int s = 0; s < streams_; ++s) {
      for (int k = 0; k < 4; ++k) {
        const std::uint64_t h =
            Draw(params_.seed, kFleetRows, (static_cast<std::uint64_t>(t)
                                            << 8) | s, k);
        pump_.rows(s).push_back(Tuple{
            Value::String(Area(h)), Value::String(Id("host", Sub(h, 1) % 16)),
            Value::Real(Real(Sub(h, 2))), Value::Int(Int(Sub(h, 3)))});
      }
    }
    if (PerturbAt(t)) Perturb(&pump_.rows(0).front());
  }

  int warmup_instants() const override { return 16; }
  int verify_instants() const override { return params_.scale > 1 ? 10 : 24; }

 private:
  static std::string StreamName(int s) {
    return s < 10 ? Id("s0", s) : Id("s", s);
  }

  int streams_;
  int queries_;
};

/// The paper's sensors-and-messengers scenario at scale: passive β over
/// 256 emulated sensors (the second query served by the per-instant memo)
/// and an active β over 32 messengers. The slowest device sets the tick.
class DeviceFanout : public BaseWorkload {
 public:
  explicit DeviceFanout(const Params& params)
      : BaseWorkload(params),
        sensors_(Scaled(256, 8)),
        messengers_(Scaled(32, 4)),
        contacts_(Scaled(64, 8)) {}

  Status Setup(Client& client) override {
    SERENA_RETURN_NOT_OK(client.Ddl(
        "PROTOTYPE getTemperature() : (temperature REAL);"
        "PROTOTYPE sendMessage(address STRING, text STRING) : (sent BOOLEAN) "
        "ACTIVE;"
        "EXTENDED RELATION sensors (sensor SERVICE, area STRING, "
        "temperature REAL VIRTUAL) USING BINDING PATTERNS "
        "( getTemperature[sensor]() : (temperature) );"
        "EXTENDED RELATION contacts (name STRING, area STRING, address "
        "STRING, text STRING VIRTUAL, messenger SERVICE, sent BOOLEAN "
        "VIRTUAL) USING BINDING PATTERNS ( sendMessage[messenger](address, "
        "text) : (sent) );"
        "EXTENDED STREAM probes (area STRING, seq INTEGER, probe REAL);"
        "EXTENDED STREAM alerts (area STRING, seq INTEGER, severity "
        "INTEGER);"));
    const std::uint64_t seed = params_.seed;
    std::vector<std::string> sensor_rows, contact_rows;
    for (int i = 0; i < sensors_; ++i) {
      const std::string id = Id("dev", i);
      SERENA_RETURN_NOT_OK(AddDevice(
          client, id, 1000 + i, "getTemperature", Io::kEmulated, seed,
          &devices_, [](std::uint64_t h) {
            return Tuple{Value::Real(15.0 + Real(h) / 5.0)};
          }));
      sensor_rows.push_back(Row({Quote(id), Quote(Area(i))}));
    }
    for (int i = 0; i < messengers_; ++i) {
      SERENA_RETURN_NOT_OK(AddDevice(
          client, Id("msg", i), 5000 + i, "sendMessage", Io::kEmulated, seed,
          &devices_, [](std::uint64_t) { return Tuple{Value::Bool(true)}; }));
    }
    for (int i = 0; i < contacts_; ++i) {
      contact_rows.push_back(Row({Quote(Id("c", i)), Quote(Area(i)),
                                  Quote(Id("c", i) + "@example.org"),
                                  Quote(Id("msg", i % messengers_))}));
    }
    SERENA_RETURN_NOT_OK(client.Ddl(Insert("sensors", sensor_rows) +
                                    Insert("contacts", contact_rows)));
    SERENA_RETURN_NOT_OK(pump_.Attach(client, {"probes", "alerts"}));
    // window[2]: a reading whose device failed is retried the next
    // instant, while its probe is still in the window.
    SERENA_RETURN_NOT_OK(client.Register(
        "temps", "invoke[getTemperature](join(window[2](probes), sensors))"));
    SERENA_RETURN_NOT_OK(client.Register(
        "warm", "select[temperature > 20.0](invoke[getTemperature](join("
                "window[2](probes), sensors)))"));
    return client.Register(
        "notify", "invoke[sendMessage](assign[text := 'alert'](join(select["
                  "severity > 50](window[2](alerts)), contacts)))");
  }

  void Generate(Timestamp t) override {
    // Each instant probes every area once, so every sensor is read.
    const int rows = Scaled(8, 1);
    for (int k = 0; k < rows; ++k) {
      const std::uint64_t p = Draw(params_.seed, kProbes, t, k);
      pump_.rows(0).push_back(Tuple{Value::String(Area(k)), Value::Int(t),
                                    Value::Real(Real(p))});
      const std::uint64_t a = Draw(params_.seed, kAlerts, t, k);
      pump_.rows(1).push_back(Tuple{Value::String(Area(k)), Value::Int(t),
                                    Value::Int(Int(a))});
    }
    if (PerturbAt(t)) Perturb(&pump_.rows(0).front());
  }

  int warmup_instants() const override { return 8; }
  int verify_instants() const override { return params_.scale > 1 ? 10 : 16; }

 private:
  int sensors_;
  int messengers_;
  int contacts_;
};

/// One console client: every instant a cheap tick, then four one-shot
/// queries, two table writes and a standing-query churn. Parse → analyze →
/// optimize → execute and table writes dominate.
class ConsoleChurn : public BaseWorkload {
 public:
  explicit ConsoleChurn(const Params& params)
      : BaseWorkload(params, /*events=*/true) {}

  bool console_between_ticks() const override { return true; }

  Status Setup(Client& client) override {
    SERENA_RETURN_NOT_OK(console_.Setup(client, &devices_));
    SERENA_RETURN_NOT_OK(pump_.Attach(client, {"events"}));
    return console_.RegisterStanding(client);
  }

  void Generate(Timestamp t) override {
    const int rows = Scaled(8, 2);
    for (int k = 0; k < rows; ++k) {
      const std::uint64_t h = Draw(params_.seed, kEvents, t, k);
      pump_.rows(0).push_back(
          Tuple{Value::String(Area(h)),
                Value::String(Id("h", Sub(h, 1) % console_.hosts())),
                Value::Real(Real(Sub(h, 2))), Value::Int(t)});
    }
    if (PerturbAt(t)) Perturb(&pump_.rows(0).front());
  }

  int warmup_instants() const override { return 32; }
  int verify_instants() const override { return params_.scale > 1 ? 10 : 32; }
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Params& params) {
  if (name == "firehose") return std::make_unique<Firehose>(params);
  if (name == "query_fleet") return std::make_unique<QueryFleet>(params);
  if (name == "device_fanout") return std::make_unique<DeviceFanout>(params);
  if (name == "console_churn") return std::make_unique<ConsoleChurn>(params);
  return nullptr;
}

}  // namespace serena::e2e
