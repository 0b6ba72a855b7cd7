/**
 * @file
 * The host-speed probe: a fixed slice of integer work whose time tracks
 * how fast the shared host runs at the moment.
 *
 * Other guests on the host slow every program down by 10-30% for
 * seconds to minutes at a time, far more than a change to the simulator
 * should have to move before a benchmark notices. A pass that runs probe
 * slices between its cells learns how slow the host was while it ran,
 * and its time can be scaled to what it would have been on the host at
 * reference speed. The probe is the benchmark's own code, so a change to
 * the simulator never changes it.
 */

#ifndef CAMPAIGNBENCH_PROBE_HH
#define CAMPAIGNBENCH_PROBE_HH

#include <vector>

namespace cbench {

/** Seconds one probe slice takes on the reference box when it is quiet
 *  (a 4-vCPU KVM guest on an Intel Xeon). */
constexpr double kProbeReferenceSeconds = 2.0e-3;

/** Run one probe slice: xorshift-driven, branchy table updates in a
 *  16 KiB table (about 2 ms). Returns its seconds. */
double probeSlice();

/** Start probing cells that run on threads the benchmark does not own
 *  (the fleet's workers): while armed, every @p every-th probePoint()
 *  runs a slice on the calling thread. */
void armProbes(unsigned every);

/** Stop probing; returns the seconds of the slices run since armed. */
std::vector<double> disarmProbes();

/** One cell done on the calling thread (wrap.cc calls it as a runner
 *  journals a cell). Runs a slice when armed and due. */
void probePoint();

/** How much slower than reference the host ran over @p slices: their
 *  mean over kProbeReferenceSeconds (1.0 = reference speed). */
double hostSlowdown(const std::vector<double> &slices);

} // namespace cbench

#endif // CAMPAIGNBENCH_PROBE_HH
