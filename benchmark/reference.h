/**
 * @file
 * The benchmark's host-speed reference: a fixed amount of work that
 * shares no code with the program.
 *
 * The vCPUs of a shared host run faster or slower from minute to
 * minute. A workload's time divided by this one, taken in the same
 * process next to it, cancels that swing and keeps the program's own
 * cost. The reference is built as its own library with the benchmark's
 * fixed flags and no link to the program, so no change to the
 * program's code or build moves it.
 */

#ifndef FPBENCH_REFERENCE_H
#define FPBENCH_REFERENCE_H

#include <cstdint>

namespace fpbench {

/**
 * Wall nanoseconds of 16 chunks per thread, on @p threads threads, of
 * xorshift indices into an L2-sized table, bit counts, and a float
 * recurrence. Threads take chunks from a shared counter, as the
 * simulation engine takes units. A chunk takes about 5 ms on the
 * 4-vCPU container the benchmark was written on.
 */
int64_t referenceNs(int threads);

} // namespace fpbench

#endif // FPBENCH_REFERENCE_H
