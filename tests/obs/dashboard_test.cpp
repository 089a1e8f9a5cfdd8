// Dashboard frame rendering from a synthetic MetricsSnapshot: per-PE
// rate bars, counters in the header, funnel and queue lines, and
// graceful absence of everything when the snapshot is empty.

#include "obs/dashboard.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"

namespace swh::obs {
namespace {

MetricsSnapshot synthetic() {
    MetricsRegistry reg;
    reg.gauge("sched.pe.0.rate_cps").set(6.0e9);
    reg.gauge("sched.pe.1.rate_cps").set(1.0e9);
    reg.counter("sched.pe.0.accepted").add(14);
    reg.counter("sched.pe.1.accepted").add(3);
    reg.counter("sched.replicas_issued").add(1);
    reg.counter("sched.completions_accepted").add(17);
    reg.gauge("engine.cpu.filter.tau").set(87.0);
    reg.counter("engine.cpu.filter.cohorts").add(20);
    reg.counter("engine.cpu.filter.lanes").add(1200);
    reg.counter("engine.cpu.filter.pruned").add(900);
    reg.counter("engine.cpu.subjects_interseq").add(100);
    reg.counter("engine.cpu.subjects_striped").add(0);
    Histogram& depth = reg.histogram("channel.master_inbox.depth");
    for (int i = 0; i < 10; ++i) depth.record(2.0);
    return reg.snapshot();
}

TEST(Dashboard, RendersPeRowsWithLabelsAndRates) {
    DashboardOptions opts;
    opts.pe_labels = {"GPU1", "SSE1"};
    opts.elapsed_s = 12.5;
    const std::string frame = render_dashboard(synthetic(), opts);
    EXPECT_NE(frame.find("GPU1"), std::string::npos);
    EXPECT_NE(frame.find("SSE1"), std::string::npos);
    EXPECT_NE(frame.find("GCUPS"), std::string::npos);
    // Header carries elapsed time and acceptance totals.
    EXPECT_NE(frame.find("12.5"), std::string::npos);
    EXPECT_FALSE(frame.empty());
    EXPECT_EQ(frame.back(), '\n');
}

TEST(Dashboard, UnknownPesGetFallbackLabels) {
    const std::string frame = render_dashboard(synthetic(), {});
    EXPECT_NE(frame.find("pe0"), std::string::npos);
    EXPECT_NE(frame.find("pe1"), std::string::npos);
}

TEST(Dashboard, ShowsFunnelThresholdWhenArmed) {
    const std::string frame = render_dashboard(synthetic(), {});
    EXPECT_NE(frame.find("87"), std::string::npos);  // tau value
}

TEST(Dashboard, FunnelPrunedShareIsAPercentageOfSweptLanes) {
    // 900 of 1200 swept lanes pruned over 20 cohorts: 75%, not the
    // pruned-lanes-per-cohort ratio (4500%).
    const std::string frame = render_dashboard(synthetic(), {});
    const std::size_t at = frame.find("pruned ");
    ASSERT_NE(at, std::string::npos) << frame;
    const std::size_t pct = frame.find('%', at);
    ASSERT_NE(pct, std::string::npos) << frame;
    const double value =
        std::stod(frame.substr(at + 7, pct - (at + 7)));
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, 100.0);
    EXPECT_DOUBLE_EQ(value, 75.0);
}

TEST(Dashboard, EmptySnapshotRendersAFrameWithoutPeRows) {
    const std::string frame = render_dashboard(MetricsSnapshot{}, {});
    EXPECT_FALSE(frame.empty());
    EXPECT_EQ(frame.find("pe0"), std::string::npos);
}

TEST(Dashboard, RespectsExplicitFullScale) {
    DashboardOptions opts;
    opts.full_scale_gcups = 10.0;
    opts.bar_columns = 20;
    const std::string a = render_dashboard(synthetic(), opts);
    opts.full_scale_gcups = 100.0;
    const std::string b = render_dashboard(synthetic(), opts);
    EXPECT_NE(a, b);  // same data, different axis scale
}

}  // namespace
}  // namespace swh::obs
