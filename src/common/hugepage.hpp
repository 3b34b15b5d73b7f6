// Huge-page backing for the large register tables.
//
// The RT/PT register arrays are probed at uniformly random rows; sized for
// the paper's capture scale (millions of concurrent connections and
// outstanding packets) they span hundreds of megabytes, and on 4 KB pages
// nearly every probe is also a DTLB miss whose page walk stalls the probe
// load. Backing the slot arrays with 2 MB pages keeps them within TLB
// reach: a few hundred huge-page entries, which the second-level TLB
// holds, map what would take tens of thousands of 4 KB entries, so most
// probes pay the memory access without a page walk in front of it.
//
// advise_hugepages() must run between allocation and first touch (reserve,
// advise, then resize): kernels in `madvise` THP mode promote a region to
// huge pages eagerly only when the advice precedes the faults; collapsing
// already-faulted 4 KB pages is left to khugepaged, which can lag the whole
// benchmark. Purely advisory — on failure (or off Linux) the table just
// stays on base pages.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace dart {

/// Ask the kernel to back [data, data + bytes) with transparent huge pages.
/// Only the 2 MB-aligned interior of the range is advised (madvise wants
/// page-aligned bounds); regions smaller than one huge page are left alone.
inline void advise_hugepages(void* data, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kHuge = 2u << 20;
  const std::uintptr_t begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t aligned = (begin + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t end = (begin + bytes) & ~(kHuge - 1);
  if (end > aligned) {
    (void)madvise(reinterpret_cast<void*>(aligned),
                  static_cast<std::size_t>(end - aligned), MADV_HUGEPAGE);
  }
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace dart
