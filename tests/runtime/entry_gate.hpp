#pragma once

// Test-local engine decorator that orders the first tasks of a run's
// slaves: the fault tests need their faulty slaves fed before a healthy
// slave can drain every query, which a fast scan on a loaded host
// otherwise does.

#include <chrono>
#include <memory>
#include <string_view>
#include <utility>

#include "engines/engine.hpp"
#include "util/annotations.hpp"

namespace swh::runtime {

/// Test-local ordering gate between engines of one run, so a healthy
/// slave cannot drain every query before the faulty ones are fed: the
/// faulty engines arrive as they enter execute(), and a healthy
/// engine's first execute() waits until `expected` arrivals. The wait
/// is bounded — below the run's liveness timeout, since a slave held
/// in execute() sends no progress — so a schedule that never feeds the
/// faulty engines fails the test's assertions instead of hanging.
class EntryGate {
public:
    EntryGate(int expected, std::chrono::milliseconds bound)
        : expected_(expected), bound_(bound) {}

    void arrive() {
        const LockGuard lock(mu_);
        ++arrived_;
        cv_.notify_all();
    }

    void wait() {
        const auto deadline = std::chrono::steady_clock::now() + bound_;
        const LockGuard lock(mu_);
        while (arrived_ < expected_ &&
               cv_.wait_until(mu_, deadline) != std::cv_status::timeout) {
        }
    }

private:
    Mutex mu_;
    CondVar cv_;
    int arrived_ SWH_GUARDED_BY(mu_) = 0;
    const int expected_;
    const std::chrono::milliseconds bound_;
};

/// Decorator that passes its engine's execute() through `gate`: a
/// faulty engine arrives on each of its first `arrivals` calls, a
/// healthy one waits on its first call.
class GatedEngine final : public engines::ComputeEngine {
public:
    enum class Role { kArrive, kWait };

    GatedEngine(std::unique_ptr<engines::ComputeEngine> inner,
                EntryGate& gate, Role role, int arrivals = 1)
        : inner_(std::move(inner)),
          gate_(gate),
          role_(role),
          pending_(role == Role::kArrive ? arrivals : 1) {}

    std::string_view name() const override { return inner_->name(); }
    core::PeKind kind() const override { return inner_->kind(); }

    core::TaskResult execute(const align::Sequence& query,
                             std::uint32_t query_index, core::TaskId task,
                             const db::Database& database,
                             engines::ExecutionObserver* observer) override {
        if (pending_ > 0) {
            --pending_;
            if (role_ == Role::kArrive) {
                gate_.arrive();
            } else {
                gate_.wait();
            }
        }
        return inner_->execute(query, query_index, task, database, observer);
    }

private:
    std::unique_ptr<engines::ComputeEngine> inner_;
    EntryGate& gate_;
    Role role_;
    int pending_;  ///< gated calls left; engines run on one slave thread
};

inline std::unique_ptr<engines::ComputeEngine> gated(
    std::unique_ptr<engines::ComputeEngine> engine, EntryGate& gate,
    GatedEngine::Role role, int arrivals = 1) {
    return std::make_unique<GatedEngine>(std::move(engine), gate, role,
                                         arrivals);
}

}  // namespace swh::runtime
