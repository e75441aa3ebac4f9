// Host probes owned by the benchmark. Their code is frozen: a change to
// the program cannot move them, so when they move the host moved.
#pragma once

#include <cstddef>

namespace tagnn {
class DynamicGraph;
}

namespace perfbench {

/// The calibration loop: a frozen mean-aggregate-and-combine pass (32
/// output columns) over every snapshot of `g`, in plain loops owned by
/// the benchmark. It touches memory the way the engines do, so it slows
/// down with them when other guests contend for the shared cache, while
/// no change to the program can move it. Returns wall seconds.
double calib_slot(const tagnn::DynamicGraph& g);

/// STREAM-style triad a[i] = b[i] + s * c[i] over three 8 MiB float
/// arrays; returns the best-of-five bandwidth in GB/s (12 bytes/element).
double triad_gbs();

}  // namespace perfbench
