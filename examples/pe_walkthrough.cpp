/**
 * @file
 * Cycle-by-cycle walkthrough of the paper's Fig. 5 example: two lanes
 * (A0 = 2^2 x 1.1101 with B0 = 2^3 x 1.0011, and A1 = 2^1 x 1.1011 with
 * B1 = 2^1 x 1.1010), raw-bit term streams, a 3-position shifter
 * window, and — in the second run — a 6-bit accumulator whose
 * out-of-bounds skipping saves the final cycle. Uses the PE's trace
 * callback (setTraceCallback), which reads every PE's lanes out of
 * the column's lane state on every cycle without changing what the
 * cycle computes.
 *
 *   ./pe_walkthrough
 */

#include <cstdio>

#include "pe/fpraker_pe.h"

using namespace fpraker;

namespace {

const char *
laneActionStr(PeCycleTrace::LaneAction a)
{
    switch (a) {
      case PeCycleTrace::LaneAction::Fired:
        return "fire";
      case PeCycleTrace::LaneAction::ShiftStall:
        return "stall(shift)";
      case PeCycleTrace::LaneAction::Idle:
        return "idle";
      case PeCycleTrace::LaneAction::ObRetired:
        return "ob-retired";
    }
    return "?";
}

int
runOnce(int ob_threshold)
{
    PeConfig cfg;
    cfg.lanes = 2;
    cfg.maxDelta = 3;
    cfg.encoding = TermEncoding::RawBits; // the figure streams raw bits
    cfg.exponentFloor = 1;                // standalone PE
    if (ob_threshold > 0)
        cfg.obThreshold = ob_threshold;

    FPRakerPe pe(cfg);
    pe.setTraceCallback([&](const PeCycleTrace &t) {
        std::printf("  cycle %d: eacc=%d base=%d |", t.cycle, t.accExp,
                    t.base);
        for (size_t l = 0; l < t.action.size(); ++l) {
            std::printf(" lane%zu:%s", l, laneActionStr(t.action[l]));
            if (t.action[l] == PeCycleTrace::LaneAction::Fired ||
                t.action[l] == PeCycleTrace::LaneAction::ShiftStall)
                std::printf("(k=%d)", t.k[l]);
        }
        std::printf("\n");
    });

    MacPair pairs[2] = {
        {BFloat16::fromFields(false, 127 + 2, 0b1101000),  // 2^2*1.1101
         BFloat16::fromFields(false, 127 + 3, 0b0011000)}, // 2^3*1.0011
        {BFloat16::fromFields(false, 127 + 1, 0b1011000),  // 2^1*1.1011
         BFloat16::fromFields(false, 127 + 1, 0b1010000)}, // 2^1*1.1010
    };
    int cycles = pe.processSet(pairs, 2);
    std::printf("  -> %d cycles, result %.5f (exact: %.5f)\n", cycles,
                pe.accumulator().chunkRegister().readDouble(),
                7.25 * 9.5 + 3.375 * 3.25);
    return cycles;
}

} // namespace

int
main()
{
    std::printf("Fig. 5 walkthrough, full-precision accumulator "
                "(12 fraction bits):\n");
    runOnce(-1);

    std::printf("\nsame operands with a 6-bit accumulator window: the "
                "trailing terms fall\nout of bounds and the set "
                "finishes a cycle early:\n");
    runOnce(6);

    std::printf("\n(the paper's figure keeps eacc=5 through cycle 4; "
                "the text's per-step\nnormalization — which this model "
                "implements — reaches eacc=6 after cycle 2,\nshifting "
                "the printed base values but not the cycle count)\n");
    return 0;
}
