/**
 * @file
 * Host-speed calibration for the end-to-end host metrics.
 *
 * On a shared host the machine's speed drifts by tens of percent over
 * seconds to minutes (co-tenants' pressure on the cores, the caches and
 * memory), and the drift moves every host timing of a run together. A
 * fixed kernel that shares no code with the simulator is timed between
 * repetitions. Each repetition's host times are scaled by the kernel's
 * reference time over its mean time just before and just after the
 * repetition, so the end-to-end host metrics read in reference-machine
 * seconds: a slow phase of the host slows the kernel and the repetition
 * alike and cancels, while a slower simulator slows only the repetition.
 */

#ifndef CHAMELEON_PERFBENCH_CALIBRATE_H
#define CHAMELEON_PERFBENCH_CALIBRATE_H

#include <cstdint>
#include <vector>

namespace perfbench {

class HostCalibration
{
  public:
    /**
     * The kernel's time on the reference machine (a 4-vCPU VM on a
     * 2.0 GHz Xeon, quiet host); a fixed constant, so calibrated figures
     * compare across runs and commits.
     */
    static constexpr double kReferenceSeconds = 0.2;

    /** Builds and touches the kernel's table (32 MiB). */
    HostCalibration();

    /** Run the kernel once; its wall time in seconds. */
    double measure();

    /** Reference time over the mean of two kernel times around a span. */
    static double scale(double before, double after)
    {
        return kReferenceSeconds / (0.5 * (before + after));
    }

  private:
    /** A single random cycle through the table, for a pointer chase. */
    std::vector<std::uint32_t> next_;
};

} // namespace perfbench

#endif // CHAMELEON_PERFBENCH_CALIBRATE_H
