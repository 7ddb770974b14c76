/**
 * @file
 * Ablation: output-length predictor implementations — the paper's
 * BERT-proxy-style predictor (accuracy knob) vs the online per-adapter
 * history EWMA vs a perfect oracle, all driving full Chameleon.
 */

#include <cstdio>

#include "bench_util.h"

using namespace chameleon;

int
main()
{
    bench::banner("Ablation — output-length predictor implementations",
                  "the scheduler is robust to ~80% accuracy (§5.4.1); a "
                  "purely online history predictor is a viable zero-cost "
                  "alternative to the BERT proxy");

    auto tb = bench::makeTestbed(100);
    const auto trace = tb.trace(9.0, 300.0);

    struct Entry
    {
        const char *label;
        core::PredictorKind predictor;
        double accuracy;
    };
    const Entry entries[] = {
        {"oracle (100%)", core::PredictorKind::Bert, 1.0},
        {"bert-proxy (80%)", core::PredictorKind::Bert, 0.8},
        {"bert-proxy (60%)", core::PredictorKind::Bert, 0.6},
        {"history-ewma", core::PredictorKind::History, 0.0},
    };

    std::printf("%-18s %12s %12s %12s\n", "predictor", "p99ttft(s)",
                "p50ttft(s)", "preempts");
    for (const auto &entry : entries) {
        auto spec = tb.spec("chameleon");
        spec.predictor.kind = entry.predictor;
        spec.predictor.accuracy = entry.accuracy;
        const auto result = bench::run(tb, spec, trace);
        std::printf("%-18s %12.2f %12.2f %12lld\n", entry.label,
                    result.stats.ttft.p99(), result.stats.ttft.p50(),
                    static_cast<long long>(result.stats.preemptions));
    }
    return 0;
}
