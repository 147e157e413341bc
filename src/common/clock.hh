/**
 * @file
 * The repo's one monotonic clock: steady-clock seconds from an
 * arbitrary epoch. Wall-time metrics, the thread pool's chunk
 * observer and the serving runtime's timestamps all read it, so their
 * times share one base and can be subtracted from each other.
 */

#ifndef FLCNN_COMMON_CLOCK_HH
#define FLCNN_COMMON_CLOCK_HH

namespace flcnn {

/** Steady-clock seconds (monotonic; only differences are meaningful). */
double monotonicSeconds();

} // namespace flcnn

#endif // FLCNN_COMMON_CLOCK_HH
