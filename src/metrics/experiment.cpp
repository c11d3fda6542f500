#include "metrics/experiment.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "core/session.hpp"
#include "crypto/prng.hpp"
#include "sim/simulator.hpp"

namespace mpciot::metrics {

namespace {

/// Plain per-trial metric record; computed concurrently, folded serially.
struct TrialRecord {
  double latency_max_ms = 0.0;
  double latency_mean_ms = 0.0;
  double radio_on_max_ms = 0.0;
  double radio_on_mean_ms = 0.0;
  double success_ratio = 0.0;
  double share_delivery = 0.0;
  double total_duration_ms = 0.0;
};

TrialRecord run_one_trial(const core::SssProtocol& protocol,
                          const ExperimentSpec& spec, std::uint32_t trial,
                          std::size_t source_count) {
  sim::Simulator sim(trial_sim_seed(spec.base_seed, trial));
  const std::vector<field::Fp61> secrets =
      spec.make_secrets
          ? spec.make_secrets(trial, source_count)
          : random_secrets(trial_secret_seed(spec.base_seed, trial),
                           source_count);
  // Fresh per-trial session: trials are independent streams, so each
  // starts at round 0 with a cold workspace.
  core::Session session(protocol);
  const core::AggregationResult& res = *session.run_round(secrets, sim).flat;

  TrialRecord rec;
  rec.latency_max_ms = static_cast<double>(res.max_latency_us()) / 1e3;
  rec.latency_mean_ms = res.mean_latency_us() / 1e3;
  rec.radio_on_max_ms = static_cast<double>(res.max_radio_on_us()) / 1e3;
  rec.radio_on_mean_ms = res.mean_radio_on_us() / 1e3;
  rec.success_ratio = res.success_ratio();
  rec.share_delivery = res.share_delivery_ratio;
  rec.total_duration_ms = static_cast<double>(res.total_duration_us) / 1e3;
  return rec;
}

}  // namespace

std::uint64_t trial_sim_seed(std::uint64_t base_seed, std::uint32_t trial) {
  return crypto::derive_seed(base_seed, /*stream_tag=*/0x7153494Dull /*"qSIM"*/,
                             trial);
}

std::uint64_t trial_secret_seed(std::uint64_t base_seed, std::uint32_t trial) {
  return crypto::derive_seed(base_seed, /*stream_tag=*/0x73454352ull /*"sECR"*/,
                             trial);
}

std::vector<field::Fp61> random_secrets(std::uint64_t seed, std::size_t count,
                                        std::uint64_t bound) {
  crypto::Xoshiro256 rng(seed);
  std::vector<field::Fp61> secrets;
  secrets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    secrets.emplace_back(rng.next_below(bound));
  }
  return secrets;
}

unsigned resolve_jobs(unsigned jobs, std::uint32_t repetitions) {
  if (jobs == 0) {
    jobs = std::thread::hardware_concurrency();
    if (jobs == 0) jobs = 1;
  }
  if (repetitions > 0 && jobs > repetitions) jobs = repetitions;
  return jobs;
}

void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (jobs <= 1) {
    for (std::size_t unit = 0; unit < count; ++unit) fn(unit);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&] {
    for (;;) {
      const std::size_t unit = next.fetch_add(1);
      if (unit >= count) return;
      try {
        fn(unit);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

TrialStats run_trials(const core::SssProtocol& protocol,
                      const ExperimentSpec& spec) {
  const std::size_t source_count = protocol.config().sources.size();
  const unsigned jobs = resolve_jobs(spec.jobs, spec.repetitions);
  std::vector<TrialRecord> records(spec.repetitions);
  parallel_for(spec.repetitions, jobs, [&](std::size_t trial) {
    records[trial] = run_one_trial(
        protocol, spec, static_cast<std::uint32_t>(trial), source_count);
  });

  // Fold in trial order so the Summary sample vectors — and therefore
  // every derived statistic — match the serial run exactly.
  TrialStats stats;
  for (const TrialRecord& rec : records) {
    stats.latency_max_ms.add(rec.latency_max_ms);
    stats.latency_mean_ms.add(rec.latency_mean_ms);
    stats.radio_on_max_ms.add(rec.radio_on_max_ms);
    stats.radio_on_mean_ms.add(rec.radio_on_mean_ms);
    stats.success_ratio.add(rec.success_ratio);
    stats.share_delivery.add(rec.share_delivery);
    stats.total_duration_ms.add(rec.total_duration_ms);
  }
  return stats;
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace mpciot::metrics
