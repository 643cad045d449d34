#include "harness.h"

#include <cstring>

#include "obs/metrics.h"

namespace dtc {
namespace perfbench {

Counters
Counters::now()
{
    Counters c;
    for (int i = 0; i < kCount; ++i)
        c.v[i] = obs::metrics::counterValue(kNames[i]);
    return c;
}

void
Counters::accumulate(const Counters& before, const Counters& after)
{
    for (int i = 0; i < kCount; ++i)
        v[i] += after.v[i] - before.v[i];
}

double
SpmmExec::flops() const
{
    return 2.0 * static_cast<double>(nnz) * static_cast<double>(n);
}

double
SpmmExec::bytes() const
{
    const double a_bytes = static_cast<double>(rows + 1) * 8.0 +
                           static_cast<double>(nnz) * (4.0 + 4.0);
    const double b_bytes = static_cast<double>(cols * n) * 4.0;
    const double c_bytes = static_cast<double>(rows * n) * 4.0;
    return a_bytes + b_bytes + c_bytes;
}

void
CheckState::fold(const void* data, size_t n)
{
    const auto* p = static_cast<const unsigned char*>(data);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        digest = (digest ^ w) * 0x100000001b3ull;
    }
    for (; i < n; ++i)
        digest = (digest ^ p[i]) * 0x100000001b3ull;
}

} // namespace perfbench
} // namespace dtc
