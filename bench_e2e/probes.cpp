#include "probes.hpp"

#include <chrono>

namespace bench {

namespace {
thread_local int t_donor = -1;
std::atomic<int> g_in_flight{0};

/// Records one span around a call when tracing is on; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t problem, std::uint64_t unit)
      : log_(g_span_log.load()) {
    if (log_ == nullptr) return;
    span_.name = name;
    span_.problem = problem;
    span_.unit = unit;
    span_.donor = t_donor;
    span_.start = now_s();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end = now_s();
    log_->add(std::move(span_));
  }
  [[nodiscard]] bool active() const { return log_ != nullptr; }
  Span& span() { return span_; }

 private:
  SpanLog* log_;
  Span span_;
};
}  // namespace

std::atomic<SpanLog*> g_span_log{nullptr};

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

void set_current_donor(int donor) { t_donor = donor; }
int processes_in_flight() { return g_in_flight.load(); }

void SpanLog::add(Span span) {
  span.job = job_;
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::take() {
  std::lock_guard lock(mutex_);
  return std::move(spans_);
}

// ---- TimedDataManager ----

std::string TimedDataManager::algorithm_name() const {
  return inner_->algorithm_name();
}

std::vector<std::byte> TimedDataManager::problem_data() const {
  ScopedSpan span("dm.problem_data", problem_id_.load(), 0);
  auto data = inner_->problem_data();
  span.span().bytes = data.size();
  return data;
}

std::optional<hdcs::dist::WorkUnit> TimedDataManager::next_unit(
    const hdcs::dist::SizeHint& hint) {
  ScopedSpan span("dm.next_unit", problem_id_.load(), 0);
  auto unit = inner_->next_unit(hint);
  if (span.active()) span.span().withheld = !unit && !inner_->is_complete();
  return unit;
}

void TimedDataManager::accept_result(const hdcs::dist::ResultUnit& result) {
  ScopedSpan span("dm.accept", result.problem_id, result.unit_id);
  inner_->accept_result(result);
}

bool TimedDataManager::is_complete() const { return inner_->is_complete(); }

std::vector<std::byte> TimedDataManager::final_result() const {
  ScopedSpan span("dm.final_result", problem_id_.load(), 0);
  return inner_->final_result();
}

double TimedDataManager::remaining_ops_estimate() const {
  return inner_->remaining_ops_estimate();
}

bool TimedDataManager::supports_snapshot() const {
  return inner_->supports_snapshot();
}

void TimedDataManager::snapshot(hdcs::ByteWriter& w) const {
  inner_->snapshot(w);
}

void TimedDataManager::restore(hdcs::ByteReader& r) { inner_->restore(r); }

// ---- TimedAlgorithm ----

void TimedAlgorithm::initialize(std::span<const std::byte> problem_data) {
  ScopedSpan span("alg.init", 0, 0);
  inner_->initialize(problem_data);
}

std::vector<std::byte> TimedAlgorithm::process(const hdcs::dist::WorkUnit& unit) {
  struct InFlight {
    InFlight() { g_in_flight.fetch_add(1); }
    ~InFlight() { g_in_flight.fetch_sub(1); }
  } in_flight;
  ScopedSpan span("alg.process", unit.problem_id, unit.unit_id);
  return inner_->process(unit);
}

void register_timed(hdcs::dist::AlgorithmRegistry& timed,
                    const hdcs::dist::AlgorithmRegistry& base,
                    const std::vector<std::string>& names) {
  for (const auto& name : names) {
    timed.replace(name, [&base, name] {
      return std::make_unique<TimedAlgorithm>(base.create(name));
    });
  }
}

}  // namespace bench
