// bench_e2e: times real HDCS jobs end to end over loopback TCP.
//
// One process runs a real dist::Server and real dist::Client donors (one
// thread each), with no simulator, through the server settings hdcs_submit
// uses by default. Each job is shut down the way hdcs_submit shuts down a
// completed job: wait_for_problem -> final_result -> Server::stop(), with
// no drain(). Every job's result is compared byte for byte against
// run_locally on the same inputs.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--work-dir DIR]
//   bench_e2e --self-test [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced jobs and prints the per-layer metrics, taken from the traced
// jobs' spans (written to --trace-out as JSON lines) and from the
// program's own counters. The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dist/client.hpp"
#include "dist/local_runner.hpp"
#include "dist/server.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

using namespace hdcs;
using bench::Span;

namespace {

constexpr double kJobTimeoutS = 120;
/// nproc - 1 on the 4-core machine the bounds were set on, leaving a core
/// to the server threads: with a fourth donor, hedged duplicates compete
/// with them and the makespan spreads much wider.
constexpr int kDonors = 3;
/// Set-up is short and noisy, so after its jobs a run adds set-ups that run
/// no job until it has kMinSetupSamples, and goes on up to kMaxSetupSamples
/// while those have taken under kDrySetupBudgetS. (Run before the jobs,
/// their tear-downs leave the heap in a state that makes the first job's
/// peak RSS vary by a third.)
constexpr std::size_t kMinSetupSamples = 5;
constexpr std::size_t kMaxSetupSamples = 40;
constexpr double kDrySetupBudgetS = 1.0;

const char* const kServerTypes[] = {"RequestWork", "SubmitResult",
                                    "FetchBlobs",  "FetchProblemData",
                                    "Hello",       "Heartbeat"};
const char* const kUnitPhases[] = {"queue_wait", "blob_fetch", "decompress",
                                   "compute",    "encode",     "submit"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string trace_out;
  std::string work_dir = ".";
};

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// Restart the kernel's peak-RSS (VmHWM) tracking from the current RSS.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw IoError("cannot reset VmHWM through /proc/self/clear_refs");
}

/// Peak resident set (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return parse_f64(trim(line.substr(6, line.size() - 6 - 3))) / 1024.0;
    }
  }
  throw IoError("VmHWM missing from /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of raw samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Overlap of [a0, a1] with [b0, b1].
double overlap(double a0, double a1, double b0, double b1) {
  return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}

// ---- one server + its problems ----

dist::ServerConfig server_config(const bench::Workload& w,
                                 const std::string& wal_dir) {
  // hdcs_submit's defaults (examples/hdcs_submit.cpp).
  dist::ServerConfig cfg;
  cfg.policy_spec = "adaptive:15";
  cfg.scheduler.lease_timeout = 600;
  cfg.scheduler.client_timeout = 120;
  cfg.scheduler.hedge_endgame = true;
  cfg.io_threads = 1;
  cfg.worker_threads = 4;
  cfg.wal_dir = wal_dir;
  return cfg;
}

/// Parsed problems submitted to a started server on an ephemeral port.
struct Deployment {
  std::vector<std::shared_ptr<bench::TimedDataManager>> problems;
  std::vector<dist::ProblemId> ids;
  std::unique_ptr<dist::Server> server;
  std::string wal_dir;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (server) server->stop();
    server.reset();
    if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
  }
};

class Bench {
 public:
  Bench(Options opt, bench::Workload w)
      : opt_(std::move(opt)), w_(std::move(w)) {
    dsearch::register_algorithm();
    dprml::register_algorithm();
    bench::register_timed(timed_registry_, dist::AlgorithmRegistry::global(),
                          {dsearch::kAlgorithmName, dprml::kAlgorithmName});
  }

  /// A job's donor threads. They outlive the job's server: after stop()
  /// they ride reconnect backoff until they give up, while the next job
  /// already runs (see run_job).
  struct DonorGroup {
    struct Session {
      double start = 0;
      double end = 0;
      bool threw = false;
    };
    std::uint16_t port = 0;
    std::vector<Session> sessions;
    std::vector<std::thread> threads;

    DonorGroup() = default;
    DonorGroup(const DonorGroup&) = delete;
    DonorGroup& operator=(const DonorGroup&) = delete;
    ~DonorGroup() { join(); }
    void join() {
      for (auto& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  };

  struct Job {
    bool traced = false;
    bool warmup = false;
    bool complete = false;
    bool finished = false;  // donors joined, post-job metrics filled in
    double setup_s = 0;
    double t_submit = 0;
    double t_final = 0;
    double makespan_s = 0;
    double donor_exit_s = 0;
    double cpu_s = 0;
    double peak_rss_mb = 0;  // from set-up to final result
    int donor_errors = 0;
    std::vector<std::vector<std::byte>> results;
    std::map<std::string, double> layer;  // per-layer metrics (traced jobs)
    std::vector<Span> spans;
    std::unique_ptr<bench::SpanLog> log;  // traced jobs
    std::unique_ptr<DonorGroup> donors;
  };

  /// Set-up as timed by setup_s: parse + DataManager construction +
  /// Server::start + submit_problem. Returns the elapsed seconds.
  double set_up(const bench::Inputs& in, Deployment& d) {
    if (w_.wal) {
      d.wal_dir = (std::filesystem::path(opt_.work_dir) /
                   ("wal-" + std::to_string(::getpid()) + "-" +
                    std::to_string(next_wal_++)))
                      .string();
      std::filesystem::remove_all(d.wal_dir);
    }
    double t0 = bench::now_s();
    for (auto& dm : bench::make_problems(w_, in)) {
      d.problems.push_back(std::make_shared<bench::TimedDataManager>(dm));
    }
    d.server = std::make_unique<dist::Server>(server_config(w_, d.wal_dir));
    d.server->start();
    for (auto& dm : d.problems) {
      d.ids.push_back(d.server->submit_problem(dm));
      dm->set_problem_id(d.ids.back());
    }
    return bench::now_s() - t0;
  }

  /// Run one job to its final result and stop its server, leaving its
  /// donors to exit in the background; finish() collects them. Earlier
  /// jobs in `jobs` may still have donors in reconnect backoff: they sleep,
  /// and they only ever dial their own job's port, which is why a job
  /// whose server drew that port again waits for them first.
  Job run_job(const bench::Inputs& in, bool traced, std::vector<Job>& jobs) {
    // A lingering donor may still be computing a unit it received before
    // its server stopped; let it finish so it neither competes for CPU nor
    // counts cells in this job's registry.
    while (bench::processes_in_flight() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    obs::Registry::global().reset_values();
    Job job;
    job.traced = traced;
    if (traced) {
      job.log = std::make_unique<bench::SpanLog>(next_job_);
      bench::g_span_log.store(job.log.get());
    }
    next_job_ += 1;

    reset_peak_rss();
    Deployment d;
    job.setup_s = set_up(in, d);
    finish_jobs_on_port(jobs, d.server->port());
    job.t_submit = bench::now_s();
    const double cpu0 = cpu_seconds();

    job.donors = std::make_unique<DonorGroup>();
    DonorGroup& group = *job.donors;
    group.port = d.server->port();
    group.sessions.resize(static_cast<std::size_t>(kDonors));
    for (int i = 0; i < kDonors; ++i) {
      group.threads.emplace_back([this, &group, i] {
        bench::set_current_donor(i);
        dist::ClientConfig cfg;
        cfg.server_port = group.port;
        cfg.name = "bench-cpu" + std::to_string(i);
        cfg.exec_threads = 1;
        cfg.registry = &timed_registry_;
        auto& s = group.sessions[static_cast<std::size_t>(i)];
        s.start = bench::now_s();
        try {
          dist::Client(cfg).run();
        } catch (const std::exception&) {
          s.threw = true;
        }
        s.end = bench::now_s();
      });
    }

    job.complete = true;
    for (auto id : d.ids) {
      job.complete = job.complete && d.server->wait_for_problem(id, kJobTimeoutS);
    }
    if (job.complete) {
      for (auto id : d.ids) job.results.push_back(d.server->final_result(id));
    }
    job.t_final = bench::now_s();
    job.cpu_s = cpu_seconds() - cpu0;
    job.peak_rss_mb = peak_rss_mb();
    job.makespan_s = job.t_final - job.t_submit;
    if (traced) job.layer = server_layers(d.server->stats());
    d.server->stop();
    bench::g_span_log.store(nullptr);
    return job;
  }

  /// Finish every job whose lingering donors still dial `port`.
  void finish_jobs_on_port(std::vector<Job>& jobs, std::uint16_t port) {
    for (auto& job : jobs) {
      if (!job.finished && job.donors->port == port) finish(job);
    }
  }

  /// Join a job's donors and fill in what depends on their exit.
  void finish(Job& job) {
    if (job.finished) return;
    job.donors->join();
    job.finished = true;
    const auto& sessions = job.donors->sessions;
    double last_exit = job.t_final;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      last_exit = std::max(last_exit, sessions[i].end);
      job.donor_errors += sessions[i].threw ? 1 : 0;
      if (job.log) {
        Span s;
        s.name = "donor.session";
        s.start = sessions[i].start;
        s.end = sessions[i].end;
        s.donor = static_cast<int>(i);
        job.log->add(std::move(s));
      }
    }
    job.donor_exit_s = last_exit - job.t_final;
    std::fprintf(stderr,
                 "bench_e2e: %s job traced=%d setup=%.4fs makespan=%.4fs "
                 "donor_exit=%.4fs cpu=%.3fs peak_rss=%.1fMiB donor_errors=%d "
                 "complete=%d\n",
                 w_.name.c_str(), job.traced ? 1 : 0, job.setup_s,
                 job.makespan_s, job.donor_exit_s, job.cpu_s, job.peak_rss_mb,
                 job.donor_errors, job.complete ? 1 : 0);
    if (job.log) {
      job.spans = job.log->take();
      span_layers(job, job.t_submit, job.t_final);
    }
  }

  /// Reference results via run_locally at a coarse unit size (0) or at
  /// `unit_ops`. Serial when `serial`, else spread over kDonors
  /// threads. Returns the wall seconds taken.
  double reference(const bench::Inputs& in, bool serial, double unit_ops,
                   std::vector<std::vector<std::byte>>& out) {
    auto problems = bench::make_problems(w_, in);
    out.assign(problems.size(), {});
    auto threads = static_cast<std::size_t>(kDonors);
    auto solve = [&](std::size_t i, std::size_t inner_threads) {
      auto& dm = *problems[i];
      double ops = unit_ops > 0
                       ? unit_ops
                       : std::max(1e6, dm.remaining_ops_estimate() / 16);
      out[i] = dist::run_locally(dm, ops, nullptr,
                                 dist::AlgorithmRegistry::global(),
                                 inner_threads);
    };
    double t0 = bench::now_s();
    if (serial || problems.size() == 1) {
      for (std::size_t i = 0; i < problems.size(); ++i) {
        solve(i, serial ? 1 : threads);
      }
    } else {
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
          for (std::size_t i; (i = next.fetch_add(1)) < problems.size();) {
            solve(i, 1);
          }
        });
      }
      for (auto& t : pool) t.join();
    }
    return bench::now_s() - t0;
  }

  int run_measured() {
    const auto in = bench::make_inputs(w_, opt_.seed);
    std::vector<Job> jobs;
    const double t0 = bench::now_s();
    // The first job warms the allocator, the page cache and the CPU caches;
    // it gives peak_rss_mb and is checked, but no median counts it.
    jobs.push_back(run_job(in, false, jobs));
    jobs.back().warmup = true;
    do {
      if (opt_.trace) jobs.push_back(run_job(in, false, jobs));
      jobs.push_back(run_job(in, opt_.trace, jobs));
    } while (bench::now_s() - t0 < opt_.seconds);

    std::vector<double> setups;
    for (const auto& j : jobs) setups.push_back(j.setup_s);
    {
      // Tear-downs run on their own threads: stopping a server waits out
      // its housekeeping tick, which would otherwise cap the samples.
      std::vector<std::thread> teardowns;
      for (const double t1 = bench::now_s();
           setups.size() < kMinSetupSamples ||
           (setups.size() < kMaxSetupSamples &&
            bench::now_s() - t1 < kDrySetupBudgetS);) {
        auto d = std::make_unique<Deployment>();
        setups.push_back(set_up(in, *d));
        finish_jobs_on_port(jobs, d->server->port());
        teardowns.emplace_back([d = std::move(d)]() mutable { d.reset(); });
      }
      for (auto& t : teardowns) t.join();
    }

    // The last jobs' donors are still in backoff, asleep, while the
    // reference runs.
    std::vector<std::vector<std::byte>> expected;
    const double serial_s = reference(in, opt_.trace, 0, expected);
    int failed = 0;
    for (auto& j : jobs) {
      finish(j);
      failed += j.complete && j.results == expected ? 0 : 1;
    }

    std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
    auto put = [&out](const std::string& name, double v, const char* unit) {
      out.push_back({name, {std::isfinite(v) ? v : 0.0, unit}});
    };
    auto med = [&jobs](bool traced, auto field) {
      std::vector<double> v;
      for (const auto& j : jobs) {
        if (j.traced == traced && !j.warmup) v.push_back(field(j));
      }
      return median(v);
    };
    const double makespan = med(false, [](const Job& j) { return j.makespan_s; });
    if (!opt_.trace) {
      put("setup_s", median(setups), "s");
      put("makespan_s", makespan, "s");
      // The worst job of the run: donors that happen to poll between the
      // final result and stop() exit at once, so a job's exit delay is
      // bimodal, and a hang in any job is what a user waits on.
      double exit_s = 0;
      for (const auto& j : jobs) exit_s = std::max(exit_s, j.donor_exit_s);
      put("donor_exit_s", exit_s, "s");
      put("cpu_s", med(false, [](const Job& j) { return j.cpu_s; }), "s");
      // The warm-up job runs alone, as one hdcs_submit job would; later
      // jobs share the process with earlier jobs' lingering donors and
      // arenas.
      put("peak_rss_mb", jobs.front().peak_rss_mb, "MiB");
    } else {
      for (const auto& [name, unit] : layer_units()) {
        put(name, med(true, [&name](const Job& j) { return j.layer.at(name); }),
            unit);
      }
      std::vector<double> errors;
      for (const auto& j : jobs) errors.push_back(j.donor_errors);
      put("donor_errors", median(errors), "count");
      put("baseline.serial_s", serial_s, "s");
      put("speedup", ratio(serial_s, makespan), "x");
      double traced = med(true, [](const Job& j) { return j.makespan_s; });
      put("trace.overhead_frac", ratio(traced, makespan) - 1, "frac");
      if (!opt_.trace_out.empty()) write_spans(jobs);
    }

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(jobs.size());
    json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", out[i].second.first);
      json += (i ? ", \"" : "\"") + out[i].first + "\": {\"value\": " + buf +
              ", \"unit\": \"" + out[i].second.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  }

  /// Toy-size job per workload: the distributed result must equal the
  /// reference, and the reference must not depend on the unit size.
  bool self_test_one(std::uint64_t seed) {
    const auto in = bench::make_inputs(w_, seed);
    std::vector<std::vector<std::byte>> coarse, fine;
    reference(in, true, 0, coarse);
    reference(in, true, 1e6, fine);
    std::vector<Job> jobs;
    jobs.push_back(run_job(in, true, jobs));
    Job& job = jobs.back();
    finish(job);
    bool ok = job.complete && job.results == coarse && coarse == fine;
    std::printf("%-8s units=%3.0f coarse==1e6:%s distributed==reference:%s\n",
                w_.name.c_str(), job.layer["alg.process.calls"],
                coarse == fine ? "yes" : "NO",
                job.complete && job.results == coarse ? "yes" : "NO");
    return ok;
  }

 private:
  /// Per-layer metric names and units, in output order.
  static const std::vector<std::pair<std::string, const char*>>& layer_units() {
    static const auto units = [] {
      std::vector<std::pair<std::string, const char*>> u = {
          {"dm.next_unit.calls", "count"},   {"dm.next_unit.busy_s", "s"},
          {"dm.next_unit.withheld", "count"}, {"dm.accept.calls", "count"},
          {"dm.accept.busy_s", "s"},          {"dm.final_result_s", "s"},
          {"dm.problem_data_bytes", "B"},     {"alg.process.calls", "count"},
          {"alg.process.busy_s", "s"},        {"alg.process.p50_s", "s"},
          {"alg.process.p99_s", "s"},         {"alg.init.calls", "count"},
          {"alg.init.busy_s", "s"},           {"bio.cells", "count"},
          {"bio.cells_per_s", "1/s"},         {"alg.dup.calls", "count"},
          {"alg.dup.busy_s", "s"},            {"sched.units_issued", "count"},
          {"sched.units_hedged", "count"},    {"sched.units_reissued", "count"},
          {"sched.results_accepted", "count"},
          {"sched.duplicates_dropped", "count"},
          {"sched.requests_unserved", "count"}, {"sched.useful_frac", "frac"},
          {"server.busy_s", "s"},             {"wal.records", "count"},
          {"wal.syncs", "count"},             {"wal.bytes", "B"},
          {"wal.syncs_per_result", "count"},  {"net.frames_sent", "count"},
          {"net.bytes_sent", "B"},            {"net.bulk_bytes_sent", "B"},
          {"net.blobs_sent", "count"},        {"bulk.bytes_raw", "B"},
          {"bulk.bytes_wire", "B"},           {"bulk.blobs_cache_hit", "count"},
          {"net.loop.lag_p99_s", "s"},        {"net.frames_per_result", "count"},
          {"donor.session_s", "s"},           {"donor.productive_s", "s"},
          {"donor.duplicate_s", "s"},         {"donor.other_s", "s"},
          {"donor.util", "frac"},             {"donor.budget_residual_s", "s"},
      };
      for (const char* type : kServerTypes) {
        std::string base = std::string("server.") + type;
        u.push_back({base + ".count", "count"});
        u.push_back({base + ".p99_s", "s"});
        u.push_back({base + ".busy_s", "s"});
      }
      for (const char* phase : kUnitPhases) {
        std::string base = std::string("unit.") + phase + "_s";
        u.push_back({base + ".p50", "s"});
        u.push_back({base + ".p99", "s"});
      }
      return u;
    }();
    return units;
  }

  /// Layers read from the scheduler's stats and the obs registry, right
  /// after the final result and before stop().
  std::map<std::string, double> server_layers(const dist::SchedulerStats& st) {
    auto& reg = obs::Registry::global();
    auto counter = [&reg](const char* name) {
      return static_cast<double>(reg.counter(name).value());
    };
    std::map<std::string, double> m;
    const double accepted = static_cast<double>(st.results_accepted);
    m["sched.units_issued"] = static_cast<double>(st.units_issued);
    m["sched.units_hedged"] = static_cast<double>(st.units_hedged);
    m["sched.units_reissued"] = static_cast<double>(st.units_reissued);
    m["sched.results_accepted"] = accepted;
    m["sched.duplicates_dropped"] =
        static_cast<double>(st.duplicate_results_dropped);
    m["sched.requests_unserved"] = static_cast<double>(st.work_requests_unserved);
    m["bio.cells"] = counter("align.cells_total");

    // FetchStats is the one other request type the server times.
    double server_busy =
        reg.histogram("server.handle_s.FetchStats").snapshot().sum;
    for (const char* type : kServerTypes) {
      auto snap = reg.histogram(std::string("server.handle_s.") + type).snapshot();
      std::string base = std::string("server.") + type;
      m[base + ".count"] = static_cast<double>(snap.count);
      m[base + ".p99_s"] = snap.quantile(0.99);
      m[base + ".busy_s"] = snap.sum;
      server_busy += snap.sum;
    }
    m["server.busy_s"] = server_busy;
    m["wal.records"] = counter("wal.records");
    m["wal.syncs"] = counter("wal.syncs");
    m["wal.bytes"] = counter("wal.bytes");
    m["wal.syncs_per_result"] = ratio(m["wal.syncs"], accepted);
    for (const char* name : {"net.frames_sent", "net.bytes_sent",
                             "net.bulk_bytes_sent", "net.blobs_sent",
                             "bulk.bytes_raw", "bulk.bytes_wire",
                             "bulk.blobs_cache_hit"}) {
      m[name] = counter(name);
    }
    m["net.loop.lag_p99_s"] = reg.histogram("net.loop.lag_s").snapshot().quantile(0.99);
    m["net.frames_per_result"] = ratio(m["net.frames_sent"], accepted);
    for (const char* phase : kUnitPhases) {
      std::string base = std::string("unit.") + phase + "_s";
      auto snap = reg.histogram(base).snapshot();
      m[base + ".p50"] = snap.quantile(0.5);
      m[base + ".p99"] = snap.quantile(0.99);
    }
    return m;
  }

  /// Layers measured by the bench's own spans, and the donor budget over
  /// the window [t_submit, t_final].
  void span_layers(Job& job, double t_submit, double t_final) {
    auto& m = job.layer;
    std::vector<const Span*> process;
    std::vector<double> process_s;
    double dm_next_s = 0, dm_accept_s = 0, final_s = 0, init_s = 0;
    double next_calls = 0, withheld = 0, accept_calls = 0, init_calls = 0;
    double data_bytes = 0;
    for (const auto& s : job.spans) {
      double dur = s.end - s.start;
      if (s.name == "alg.process") {
        process.push_back(&s);
        process_s.push_back(dur);
      } else if (s.name == "alg.init") {
        init_calls += 1;
        init_s += dur;
      } else if (s.name == "dm.next_unit") {
        next_calls += 1;
        dm_next_s += dur;
        withheld += s.withheld ? 1 : 0;
      } else if (s.name == "dm.accept") {
        accept_calls += 1;
        dm_accept_s += dur;
      } else if (s.name == "dm.final_result") {
        final_s += dur;
      } else if (s.name == "dm.problem_data") {
        data_bytes += static_cast<double>(s.bytes);
      }
    }
    m["dm.next_unit.calls"] = next_calls;
    m["dm.next_unit.busy_s"] = dm_next_s;
    m["dm.next_unit.withheld"] = withheld;
    m["dm.accept.calls"] = accept_calls;
    m["dm.accept.busy_s"] = dm_accept_s;
    m["dm.final_result_s"] = final_s;
    m["dm.problem_data_bytes"] = data_bytes;
    double busy = 0;
    for (double d : process_s) busy += d;
    m["alg.process.calls"] = static_cast<double>(process.size());
    m["alg.process.busy_s"] = busy;
    m["alg.process.p50_s"] = quantile(process_s, 0.5);
    m["alg.process.p99_s"] = quantile(process_s, 0.99);
    m["alg.init.calls"] = init_calls;
    m["alg.init.busy_s"] = init_s;
    m["bio.cells_per_s"] = ratio(m["bio.cells"], busy);
    m["sched.useful_frac"] =
        ratio(m["sched.results_accepted"], static_cast<double>(process.size()));

    // The earliest-finishing process() call of a unit is productive; every
    // other call for the same unit is duplicate (hedged) compute.
    std::sort(process.begin(), process.end(), [](const Span* a, const Span* b) {
      return a->end < b->end;
    });
    std::map<std::pair<std::uint64_t, std::uint64_t>, bool> seen;
    std::vector<double> productive(static_cast<std::size_t>(kDonors));
    std::vector<double> duplicate(productive.size());
    double dup_calls = 0, dup_s = 0;
    for (const Span* s : process) {
      bool first = seen.emplace(std::make_pair(s->problem, s->unit), true).second;
      double in_window = overlap(s->start, s->end, t_submit, t_final);
      auto donor = static_cast<std::size_t>(s->donor);
      if (first) {
        productive.at(donor) += in_window;
      } else {
        duplicate.at(donor) += in_window;
        dup_calls += 1;
        dup_s += s->end - s->start;
      }
    }
    m["alg.dup.calls"] = dup_calls;
    m["alg.dup.busy_s"] = dup_s;

    double session = 0, prod = 0, dup = 0, other = 0;
    for (const auto& s : job.spans) {
      if (s.name != "donor.session") continue;
      auto i = static_cast<std::size_t>(s.donor);
      double in_window = overlap(s.start, s.end, t_submit, t_final);
      session += in_window;
      prod += productive[i];
      dup += duplicate[i];
      other += in_window - productive[i] - duplicate[i];
    }
    const double budget = kDonors * (t_final - t_submit);
    m["donor.session_s"] = session;
    m["donor.productive_s"] = prod;
    m["donor.duplicate_s"] = dup;
    m["donor.other_s"] = other;
    m["donor.util"] = ratio(prod, budget);
    m["donor.budget_residual_s"] = budget - (prod + dup + other);
  }

  void write_spans(const std::vector<Job>& jobs) {
    std::ofstream out(opt_.trace_out);
    if (!out) throw IoError("cannot write " + opt_.trace_out);
    for (const auto& j : jobs) {
      for (const auto& s : j.spans) {
        out << "{\"name\":\"" << s.name << "\",\"job\":" << s.job
            << ",\"start\":" << format_f64(s.start, 6)
            << ",\"end\":" << format_f64(s.end, 6) << ",\"donor\":" << s.donor
            << ",\"problem\":" << s.problem << ",\"unit\":" << s.unit;
        if (s.name == "dm.next_unit") {
          out << ",\"withheld\":" << (s.withheld ? "true" : "false");
        }
        if (s.name == "dm.problem_data") out << ",\"bytes\":" << s.bytes;
        out << "}\n";
      }
    }
  }

  Options opt_;
  bench::Workload w_;
  dist::AlgorithmRegistry timed_registry_;
  int next_job_ = 0;
  int next_wal_ = 0;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--self-test") {
      opt.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw InputError("missing value for " + key);
    std::string value = argv[++i];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = static_cast<std::uint64_t>(parse_i64(value));
    } else if (key == "--seconds") {
      opt.seconds = parse_f64(value);
    } else if (key == "--trace") {
      opt.trace = parse_i64(value) != 0;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else {
      throw InputError("unknown flag " + key);
    }
  }
  if (!opt.self_test && opt.workload.empty()) {
    throw InputError("--workload is required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    set_log_level(LogLevel::kError);
    Options opt = parse_args(argc, argv);
    if (opt.self_test) {
      bool ok = true;
      for (const auto& name : bench::workload_names()) {
        Bench b(opt, bench::find_workload(name, true));
        ok = b.self_test_one(opt.seed) && ok;
      }
      std::printf("self-test %s\n", ok ? "passed" : "FAILED");
      return ok ? 0 : 1;
    }
    Bench b(opt, bench::find_workload(opt.workload, false));
    return b.run_measured();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
