#pragma once
// Bench-owned probes: every layer is timed from outside, by wrapping the
// calls into its public interface. Nothing here changes what the program
// computes — the decorators forward every call unchanged — and with no
// SpanLog attached they record nothing, so an untraced job runs the same
// code path minus the clock reads.
//
//   TimedDataManager  wraps a DataManager on the server side
//                     (next_unit / accept_result / final_result / ...).
//   TimedAlgorithm    wraps a donor's Algorithm (initialize / process);
//                     installed through ClientConfig::registry.
//   SpanLog           in-memory span store, written out when the run ends.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/algorithm.hpp"
#include "dist/data_manager.hpp"
#include "dist/registry.hpp"

namespace bench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Which donor the calling thread belongs to (-1, the default, is a server
/// thread). Set once at the top of each donor thread; spans read it.
void set_current_donor(int donor);

/// TimedAlgorithm::process() calls running right now, across all donors.
int processes_in_flight();

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int donor = -1;
  std::uint64_t problem = 0;
  std::uint64_t unit = 0;
  int job = 0;
  /// "dm.next_unit": true when the call returned nothing on an incomplete
  /// problem (a stage barrier).
  bool withheld = false;
  /// "dm.problem_data": size of the returned data.
  std::uint64_t bytes = 0;
};

class SpanLog {
 public:
  explicit SpanLog(int job) : job_(job) {}
  void add(Span span);
  [[nodiscard]] std::vector<Span> take();

 private:
  int job_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Where probes record. Null = tracing off. Swapped between jobs only
/// while no server or donor thread is running.
extern std::atomic<SpanLog*> g_span_log;

class TimedDataManager final : public hdcs::dist::DataManager {
 public:
  explicit TimedDataManager(std::shared_ptr<hdcs::dist::DataManager> inner)
      : inner_(std::move(inner)) {}

  /// Scheduler-assigned id stamped on this manager's spans; set right
  /// after submit_problem() returns, before any donor connects.
  void set_problem_id(std::uint64_t id) { problem_id_.store(id); }

  [[nodiscard]] std::string algorithm_name() const override;
  [[nodiscard]] std::vector<std::byte> problem_data() const override;
  std::optional<hdcs::dist::WorkUnit> next_unit(
      const hdcs::dist::SizeHint& hint) override;
  void accept_result(const hdcs::dist::ResultUnit& result) override;
  [[nodiscard]] bool is_complete() const override;
  [[nodiscard]] std::vector<std::byte> final_result() const override;
  [[nodiscard]] double remaining_ops_estimate() const override;
  [[nodiscard]] bool supports_snapshot() const override;
  void snapshot(hdcs::ByteWriter& w) const override;
  void restore(hdcs::ByteReader& r) override;

 private:
  std::shared_ptr<hdcs::dist::DataManager> inner_;
  std::atomic<std::uint64_t> problem_id_{0};
};

class TimedAlgorithm final : public hdcs::dist::Algorithm {
 public:
  explicit TimedAlgorithm(std::unique_ptr<hdcs::dist::Algorithm> inner)
      : inner_(std::move(inner)) {}

  void initialize(std::span<const std::byte> problem_data) override;
  std::vector<std::byte> process(const hdcs::dist::WorkUnit& unit) override;
  void set_parallelism(std::size_t threads) override {
    inner_->set_parallelism(threads);
  }

 private:
  std::unique_ptr<hdcs::dist::Algorithm> inner_;
};

/// A registry whose factories wrap each named algorithm of `base` in a
/// TimedAlgorithm.
void register_timed(hdcs::dist::AlgorithmRegistry& timed,
                    const hdcs::dist::AlgorithmRegistry& base,
                    const std::vector<std::string>& names);

}  // namespace bench
