#include "common/clock.hh"

#include <chrono>

namespace flcnn {

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace flcnn
