// Golden ledgers for funding-capped runs.
//
// Once a run's funding closes, every remaining tuple is finalized from the
// knowledge the run already has. That tail must cost exactly what it
// always cost: the same skyline, the same undetermined tuples, the same
// free lookups and governor denials, the same termination report, the same
// round history and the same journal bytes. The table below pins those
// values for every driver x distribution x cap kind x |AC| x fault plan x
// pruning mode, so any change to how the tail is computed must reproduce
// them bit for bit. The preference-graph audit is on in every cell.
//
// A cell with no matching row fails and prints its actual row as a C++
// literal. After an intended ledger change, delete the stale rows and paste
// the printed ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/crowdsky.h"
#include "persist/recovery.h"
#include "persist/wire.h"
#include "testing/temp_dir.h"

namespace crowdsky {
namespace {

struct GoldenRow {
  const char* cell;
  int64_t skyline_size;
  uint32_t skyline_crc;  ///< CRC32 of the comma-joined ascending ids
  int64_t undetermined;
  uint32_t undetermined_crc;
  int64_t free_lookups;
  int64_t denied;
  const char* termination;  ///< TerminationReport::ToString()
  uint32_t rounds_crc;      ///< CRC32 of the comma-joined questions_per_round
  uint32_t journal_crc;     ///< CRC32 of the journal file's bytes
};

// Pinned from the probe-order walk that predates TupleEvaluator's settle
// path; the settle path must reproduce every row. The free_lookups column
// was regenerated once a refused ask stopped counting as a free lookup.
const std::vector<GoldenRow> kGolden = {
    {"CrowdSky/IND/dollar/ac1/clean/default",
     123, 2035676141u, 102, 497101020u, 0, 102,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=102 unresolved=0}",
     2498959935u, 3516412350u},
    {"CrowdSky/IND/dollar/ac1/clean/p2off",
     123, 2035676141u, 102, 497101020u, 131, 102,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=102 unresolved=0}",
     2498959935u, 3516412350u},
    {"CrowdSky/IND/dollar/ac1/faulty/default",
     124, 2649597287u, 106, 574276169u, 31, 102,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=102 unresolved=4}",
     2498959935u, 1868076182u},
    {"CrowdSky/IND/dollar/ac1/faulty/p2off",
     124, 2649597287u, 106, 574276169u, 128, 102,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=102 unresolved=4}",
     2498959935u, 1868076182u},
    {"CrowdSky/IND/dollar/ac2/clean/default",
     128, 2759871233u, 102, 2628486896u, 45, 102,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=102 unresolved=0}",
     4003766124u, 2041568457u},
    {"CrowdSky/IND/dollar/ac2/clean/p2off",
     128, 2759871233u, 102, 2628486896u, 19, 102,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=102 unresolved=0}",
     4003766124u, 2041568457u},
    {"CrowdSky/IND/dollar/ac2/faulty/default",
     128, 2759871233u, 106, 4009837762u, 19, 102,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=102 unresolved=6}",
     4228984962u, 2452641707u},
    {"CrowdSky/IND/dollar/ac2/faulty/p2off",
     128, 2759871233u, 106, 4009837762u, 19, 102,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=102 unresolved=6}",
     4228984962u, 2452641707u},
    {"CrowdSky/IND/round/ac1/clean/default",
     126, 3557813631u, 108, 3988432386u, 0, 108,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=108 unresolved=0}",
     2251357516u, 1543675629u},
    {"CrowdSky/IND/round/ac1/clean/p2off",
     126, 3557813631u, 108, 3988432386u, 13, 108,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=108 unresolved=0}",
     2251357516u, 1543675629u},
    {"CrowdSky/IND/round/ac1/faulty/default",
     126, 3557813631u, 109, 127596707u, 3, 108,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=108 unresolved=1}",
     2251357516u, 22639846u},
    {"CrowdSky/IND/round/ac1/faulty/p2off",
     126, 3557813631u, 109, 127596707u, 8, 108,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=108 unresolved=1}",
     2251357516u, 22639846u},
    {"CrowdSky/IND/round/ac2/clean/default",
     128, 2759871233u, 107, 3458968027u, 35, 107,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=107 unresolved=0}",
     2125696246u, 4232683672u},
    {"CrowdSky/IND/round/ac2/clean/p2off",
     128, 2759871233u, 107, 3458968027u, 4, 107,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=107 unresolved=0}",
     2125696246u, 4232683672u},
    {"CrowdSky/IND/round/ac2/faulty/default",
     128, 2759871233u, 110, 921422828u, 4, 107,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=107 unresolved=4}",
     2125696246u, 386378106u},
    {"CrowdSky/IND/round/ac2/faulty/p2off",
     128, 2759871233u, 110, 921422828u, 4, 107,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=107 unresolved=4}",
     2125696246u, 386378106u},
    {"CrowdSky/IND/questions/ac1/clean/default",
     119, 3121293719u, 94, 578393879u, 0, 0,
     "termination{reason=completed governed=0 rounds=25 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2699096685u, 1180655651u},
    {"CrowdSky/IND/questions/ac1/clean/p2off",
     119, 3121293719u, 94, 578393879u, 134, 0,
     "termination{reason=completed governed=0 rounds=25 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2699096685u, 1180655651u},
    {"CrowdSky/IND/questions/ac1/faulty/default",
     120, 1879102383u, 99, 3440750961u, 10, 0,
     "termination{reason=completed governed=0 rounds=25 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     2699096685u, 1632750659u},
    {"CrowdSky/IND/questions/ac1/faulty/p2off",
     120, 1879102383u, 99, 3440750961u, 136, 0,
     "termination{reason=completed governed=0 rounds=25 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     2699096685u, 1632750659u},
    {"CrowdSky/IND/questions/ac2/clean/default",
     128, 2759871233u, 103, 37361889u, 49, 0,
     "termination{reason=completed governed=0 rounds=13 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2412952007u, 338519423u},
    {"CrowdSky/IND/questions/ac2/clean/p2off",
     128, 2759871233u, 103, 37361889u, 15, 0,
     "termination{reason=completed governed=0 rounds=13 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2412952007u, 338519423u},
    {"CrowdSky/IND/questions/ac2/faulty/default",
     128, 2759871233u, 106, 4009837762u, 15, 0,
     "termination{reason=completed governed=0 rounds=13 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     2412952007u, 55030348u},
    {"CrowdSky/IND/questions/ac2/faulty/p2off",
     128, 2759871233u, 106, 4009837762u, 15, 0,
     "termination{reason=completed governed=0 rounds=13 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     2412952007u, 55030348u},
    {"CrowdSky/ANT/dollar/ac1/clean/default",
     127, 453604751u, 78, 2298016683u, 0, 78,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=78 unresolved=0}",
     2498959935u, 4201563857u},
    {"CrowdSky/ANT/dollar/ac1/clean/p2off",
     127, 453604751u, 78, 2298016683u, 15, 78,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=78 unresolved=0}",
     2498959935u, 4201563857u},
    {"CrowdSky/ANT/dollar/ac1/faulty/default",
     128, 2409399321u, 82, 3745642323u, 2, 79,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=79 unresolved=4}",
     2498959935u, 479405679u},
    {"CrowdSky/ANT/dollar/ac1/faulty/p2off",
     128, 2409399321u, 82, 3745642323u, 12, 79,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=79 unresolved=4}",
     2498959935u, 479405679u},
    {"CrowdSky/ANT/dollar/ac2/clean/default",
     129, 2977586117u, 81, 3545808812u, 4, 81,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=81 unresolved=0}",
     4228984962u, 968714932u},
    {"CrowdSky/ANT/dollar/ac2/clean/p2off",
     129, 2977586117u, 81, 3545808812u, 14, 81,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=81 unresolved=0}",
     4228984962u, 968714932u},
    {"CrowdSky/ANT/dollar/ac2/faulty/default",
     129, 2977586117u, 86, 1164414599u, 4, 81,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=81 unresolved=6}",
     4228984962u, 1236714696u},
    {"CrowdSky/ANT/dollar/ac2/faulty/p2off",
     129, 2977586117u, 86, 1164414599u, 14, 81,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=81 unresolved=6}",
     4228984962u, 1236714696u},
    {"CrowdSky/ANT/round/ac1/clean/default",
     128, 2409399321u, 84, 140285025u, 0, 84,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=84 unresolved=0}",
     2251357516u, 2500844979u},
    {"CrowdSky/ANT/round/ac1/clean/p2off",
     128, 2409399321u, 84, 140285025u, 7, 84,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=84 unresolved=0}",
     2251357516u, 2500844979u},
    {"CrowdSky/ANT/round/ac1/faulty/default",
     128, 2409399321u, 85, 577926712u, 0, 84,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=84 unresolved=1}",
     2251357516u, 1819504345u},
    {"CrowdSky/ANT/round/ac1/faulty/p2off",
     128, 2409399321u, 85, 577926712u, 7, 84,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=84 unresolved=1}",
     2251357516u, 1819504345u},
    {"CrowdSky/ANT/round/ac2/clean/default",
     129, 2977586117u, 88, 1674575423u, 4, 88,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=88 unresolved=0}",
     2125696246u, 1492032280u},
    {"CrowdSky/ANT/round/ac2/clean/p2off",
     129, 2977586117u, 88, 1674575423u, 4, 88,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=88 unresolved=0}",
     2125696246u, 1492032280u},
    {"CrowdSky/ANT/round/ac2/faulty/default",
     129, 2977586117u, 91, 3204107429u, 4, 88,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=88 unresolved=4}",
     2125696246u, 4202772533u},
    {"CrowdSky/ANT/round/ac2/faulty/p2off",
     129, 2977586117u, 91, 3204107429u, 4, 88,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=88 unresolved=4}",
     2125696246u, 4202772533u},
    {"CrowdSky/ANT/questions/ac1/clean/default",
     125, 157132849u, 73, 3086678214u, 0, 0,
     "termination{reason=completed governed=0 rounds=25 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2699096685u, 1903414059u},
    {"CrowdSky/ANT/questions/ac1/clean/p2off",
     125, 157132849u, 73, 3086678214u, 61, 0,
     "termination{reason=completed governed=0 rounds=25 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2699096685u, 1903414059u},
    {"CrowdSky/ANT/questions/ac1/faulty/default",
     126, 3658412747u, 77, 1333397716u, 6, 0,
     "termination{reason=completed governed=0 rounds=25 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     2699096685u, 1898216663u},
    {"CrowdSky/ANT/questions/ac1/faulty/p2off",
     126, 3658412747u, 77, 1333397716u, 59, 0,
     "termination{reason=completed governed=0 rounds=25 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     2699096685u, 1898216663u},
    {"CrowdSky/ANT/questions/ac2/clean/default",
     129, 2977586117u, 84, 3281208301u, 4, 0,
     "termination{reason=completed governed=0 rounds=13 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2412952007u, 726007941u},
    {"CrowdSky/ANT/questions/ac2/clean/p2off",
     129, 2977586117u, 84, 3281208301u, 14, 0,
     "termination{reason=completed governed=0 rounds=13 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2412952007u, 726007941u},
    {"CrowdSky/ANT/questions/ac2/faulty/default",
     129, 2977586117u, 87, 3878464511u, 4, 0,
     "termination{reason=completed governed=0 rounds=13 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     2412952007u, 481328316u},
    {"CrowdSky/ANT/questions/ac2/faulty/p2off",
     129, 2977586117u, 87, 3878464511u, 14, 0,
     "termination{reason=completed governed=0 rounds=13 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     2412952007u, 481328316u},
    {"ParallelDSet/IND/dollar/ac1/clean/default",
     120, 3914514360u, 96, 2744153233u, 0, 96,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=96 unresolved=0}",
     3226529257u, 2373010954u},
    {"ParallelDSet/IND/dollar/ac1/clean/p2off",
     120, 3914514360u, 96, 2744153233u, 134, 96,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=96 unresolved=0}",
     3226529257u, 2373010954u},
    {"ParallelDSet/IND/dollar/ac1/faulty/default",
     123, 4212804452u, 101, 2951903853u, 3, 97,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=97 unresolved=4}",
     3417250498u, 1800218194u},
    {"ParallelDSet/IND/dollar/ac1/faulty/p2off",
     123, 4212804452u, 101, 2951903853u, 137, 97,
     "termination{reason=dollar_cap governed=1 rounds=15 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=97 unresolved=4}",
     3417250498u, 1800218194u},
    {"ParallelDSet/IND/dollar/ac2/clean/default",
     126, 1407965020u, 96, 353796156u, 96, 96,
     "termination{reason=dollar_cap governed=1 rounds=11 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=96 unresolved=0}",
     4082852943u, 3617621284u},
    {"ParallelDSet/IND/dollar/ac2/clean/p2off",
     125, 3443907434u, 95, 1428944502u, 160, 95,
     "termination{reason=dollar_cap governed=1 rounds=12 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=95 unresolved=0}",
     1780477694u, 1319062430u},
    {"ParallelDSet/IND/dollar/ac2/faulty/default",
     126, 1407965020u, 104, 3669175164u, 126, 97,
     "termination{reason=dollar_cap governed=1 rounds=11 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=97 unresolved=12}",
     2186447491u, 1912844589u},
    {"ParallelDSet/IND/dollar/ac2/faulty/p2off",
     125, 3443907434u, 104, 2881059401u, 160, 96,
     "termination{reason=dollar_cap governed=1 rounds=12 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=96 unresolved=12}",
     3508370994u, 2931919529u},
    {"ParallelDSet/IND/round/ac1/clean/default",
     123, 2035676141u, 101, 1520647410u, 0, 101,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=101 unresolved=0}",
     1926436131u, 529993973u},
    {"ParallelDSet/IND/round/ac1/clean/p2off",
     123, 2035676141u, 101, 1520647410u, 13, 101,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=101 unresolved=0}",
     1926436131u, 529993973u},
    {"ParallelDSet/IND/round/ac1/faulty/default",
     125, 2064291476u, 106, 568234435u, 2, 102,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=102 unresolved=4}",
     1926436131u, 451409625u},
    {"ParallelDSet/IND/round/ac1/faulty/p2off",
     125, 2064291476u, 106, 568234435u, 15, 102,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=0.80 "
     "cost_cap=0.00 round_cap=8 denied=102 unresolved=4}",
     1926436131u, 451409625u},
    {"ParallelDSet/IND/round/ac2/clean/default",
     126, 1407965020u, 98, 1118891190u, 100, 98,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=1.20 "
     "cost_cap=0.00 round_cap=8 denied=98 unresolved=0}",
     3375882572u, 3530150143u},
    {"ParallelDSet/IND/round/ac2/clean/p2off",
     126, 1407965020u, 99, 849085565u, 144, 99,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=1.10 "
     "cost_cap=0.00 round_cap=8 denied=99 unresolved=0}",
     1665018311u, 2567448040u},
    {"ParallelDSet/IND/round/ac2/faulty/default",
     126, 1407965020u, 104, 3669175164u, 115, 99,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=1.20 "
     "cost_cap=0.00 round_cap=8 denied=99 unresolved=8}",
     2077461455u, 3751505197u},
    {"ParallelDSet/IND/round/ac2/faulty/p2off",
     126, 1407965020u, 105, 3004565312u, 144, 100,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=1.10 "
     "cost_cap=0.00 round_cap=8 denied=100 unresolved=8}",
     1239804237u, 1985747669u},
    {"ParallelDSet/IND/questions/ac1/clean/default",
     118, 3262034615u, 94, 530110730u, 0, 0,
     "termination{reason=completed governed=0 rounds=17 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2274576040u, 960399274u},
    {"ParallelDSet/IND/questions/ac1/clean/p2off",
     118, 3262034615u, 94, 530110730u, 134, 0,
     "termination{reason=completed governed=0 rounds=17 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2274576040u, 960399274u},
    {"ParallelDSet/IND/questions/ac1/faulty/default",
     121, 278177104u, 99, 4078844394u, 3, 0,
     "termination{reason=completed governed=0 rounds=17 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     1155346232u, 4087172299u},
    {"ParallelDSet/IND/questions/ac1/faulty/p2off",
     121, 278177104u, 99, 4078844394u, 137, 0,
     "termination{reason=completed governed=0 rounds=17 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     1155346232u, 4087172299u},
    {"ParallelDSet/IND/questions/ac2/clean/default",
     128, 2759871233u, 103, 37361889u, 49, 0,
     "termination{reason=completed governed=0 rounds=5 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     3561664222u, 3616506121u},
    {"ParallelDSet/IND/questions/ac2/clean/p2off",
     128, 2759871233u, 103, 37361889u, 15, 0,
     "termination{reason=completed governed=0 rounds=5 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     3561664222u, 3616506121u},
    {"ParallelDSet/IND/questions/ac2/faulty/default",
     128, 2759871233u, 106, 1503280330u, 49, 0,
     "termination{reason=completed governed=0 rounds=5 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     3561664222u, 3978776398u},
    {"ParallelDSet/IND/questions/ac2/faulty/p2off",
     128, 2759871233u, 106, 1503280330u, 15, 0,
     "termination{reason=completed governed=0 rounds=5 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     3561664222u, 3978776398u},
    {"ParallelDSet/ANT/dollar/ac1/clean/default",
     122, 2263698980u, 67, 355340695u, 0, 67,
     "termination{reason=dollar_cap governed=1 rounds=10 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=67 unresolved=0}",
     1324637733u, 919097132u},
    {"ParallelDSet/ANT/dollar/ac1/clean/p2off",
     123, 2171400599u, 66, 3700613203u, 95, 66,
     "termination{reason=dollar_cap governed=1 rounds=11 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=66 unresolved=0}",
     3769590221u, 505081551u},
    {"ParallelDSet/ANT/dollar/ac1/faulty/default",
     123, 2552769609u, 73, 3437006524u, 8, 68,
     "termination{reason=dollar_cap governed=1 rounds=10 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=68 unresolved=8}",
     736545387u, 1200646976u},
    {"ParallelDSet/ANT/dollar/ac1/faulty/p2off",
     125, 157132849u, 74, 2714202474u, 98, 69,
     "termination{reason=dollar_cap governed=1 rounds=11 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=69 unresolved=8}",
     3702783480u, 3991800154u},
    {"ParallelDSet/ANT/dollar/ac2/clean/default",
     128, 2322343674u, 74, 2503184959u, 4, 74,
     "termination{reason=dollar_cap governed=1 rounds=9 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=74 unresolved=0}",
     3896552265u, 2027875246u},
    {"ParallelDSet/ANT/dollar/ac2/clean/p2off",
     128, 2322343674u, 74, 2503184959u, 51, 74,
     "termination{reason=dollar_cap governed=1 rounds=9 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=74 unresolved=0}",
     3896552265u, 2027875246u},
    {"ParallelDSet/ANT/dollar/ac2/faulty/default",
     129, 2977586117u, 84, 3687406185u, 26, 74,
     "termination{reason=dollar_cap governed=1 rounds=9 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=74 unresolved=15}",
     4090670532u, 2775013631u},
    {"ParallelDSet/ANT/dollar/ac2/faulty/p2off",
     129, 2977586117u, 84, 3687406185u, 80, 74,
     "termination{reason=dollar_cap governed=1 rounds=9 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=74 unresolved=15}",
     4090670532u, 2775013631u},
    {"ParallelDSet/ANT/round/ac1/clean/default",
     124, 2108069600u, 69, 764095359u, 0, 69,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=1.20 "
     "cost_cap=0.00 round_cap=8 denied=69 unresolved=0}",
     3080071912u, 594384480u},
    {"ParallelDSet/ANT/round/ac1/clean/p2off",
     124, 2108069600u, 69, 764095359u, 82, 69,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=1.20 "
     "cost_cap=0.00 round_cap=8 denied=69 unresolved=0}",
     3768149529u, 3906811331u},
    {"ParallelDSet/ANT/round/ac1/faulty/default",
     125, 157132849u, 75, 2814627847u, 5, 70,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=1.20 "
     "cost_cap=0.00 round_cap=8 denied=70 unresolved=6}",
     3213713317u, 1692029905u},
    {"ParallelDSet/ANT/round/ac1/faulty/p2off",
     125, 157132849u, 74, 2714202474u, 60, 70,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=1.20 "
     "cost_cap=0.00 round_cap=8 denied=70 unresolved=6}",
     4017406063u, 3709878940u},
    {"ParallelDSet/ANT/round/ac2/clean/default",
     128, 2322343674u, 75, 4013363917u, 4, 75,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=1.40 "
     "cost_cap=0.00 round_cap=8 denied=75 unresolved=0}",
     2016895104u, 3439379239u},
    {"ParallelDSet/ANT/round/ac2/clean/p2off",
     128, 2322343674u, 75, 4013363917u, 51, 75,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=1.40 "
     "cost_cap=0.00 round_cap=8 denied=75 unresolved=0}",
     2016895104u, 3439379239u},
    {"ParallelDSet/ANT/round/ac2/faulty/default",
     129, 2977586117u, 84, 3687406185u, 26, 75,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=1.40 "
     "cost_cap=0.00 round_cap=8 denied=75 unresolved=14}",
     3527321611u, 2268662824u},
    {"ParallelDSet/ANT/round/ac2/faulty/p2off",
     129, 2977586117u, 84, 3687406185u, 80, 75,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=1.40 "
     "cost_cap=0.00 round_cap=8 denied=75 unresolved=14}",
     3527321611u, 2268662824u},
    {"ParallelDSet/ANT/questions/ac1/clean/default",
     126, 1774975352u, 73, 2139719875u, 0, 0,
     "termination{reason=completed governed=0 rounds=4 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     400752659u, 1203643979u},
    {"ParallelDSet/ANT/questions/ac1/clean/p2off",
     126, 1774975352u, 73, 4023205000u, 61, 0,
     "termination{reason=completed governed=0 rounds=4 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2222077109u, 460755466u},
    {"ParallelDSet/ANT/questions/ac1/faulty/default",
     126, 1774975352u, 77, 3689015971u, 5, 0,
     "termination{reason=completed governed=0 rounds=4 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     400752659u, 1106853777u},
    {"ParallelDSet/ANT/questions/ac1/faulty/p2off",
     126, 1774975352u, 77, 2587738554u, 59, 0,
     "termination{reason=completed governed=0 rounds=4 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     2222077109u, 3476407486u},
    {"ParallelDSet/ANT/questions/ac2/clean/default",
     129, 2977586117u, 84, 1730889012u, 4, 0,
     "termination{reason=completed governed=0 rounds=2 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     1280767371u, 979150436u},
    {"ParallelDSet/ANT/questions/ac2/clean/p2off",
     129, 2977586117u, 84, 1730889012u, 7, 0,
     "termination{reason=completed governed=0 rounds=2 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     1280767371u, 979150436u},
    {"ParallelDSet/ANT/questions/ac2/faulty/default",
     129, 2977586117u, 87, 421559106u, 4, 0,
     "termination{reason=completed governed=0 rounds=2 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     1280767371u, 834762706u},
    {"ParallelDSet/ANT/questions/ac2/faulty/p2off",
     129, 2977586117u, 87, 421559106u, 7, 0,
     "termination{reason=completed governed=0 rounds=2 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     1280767371u, 834762706u},
    {"ParallelSL/IND/dollar/ac1/clean/default",
     102, 3941166439u, 72, 4268238823u, 1, 72,
     "termination{reason=dollar_cap governed=1 rounds=4 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=72 unresolved=0}",
     340272619u, 2407176655u},
    {"ParallelSL/IND/dollar/ac1/clean/p2off",
     103, 1848951990u, 73, 927941728u, 399, 73,
     "termination{reason=dollar_cap governed=1 rounds=4 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=73 unresolved=0}",
     340272619u, 678943120u},
    {"ParallelSL/IND/dollar/ac1/faulty/default",
     108, 3711385775u, 84, 6229901u, 62, 77,
     "termination{reason=dollar_cap governed=1 rounds=4 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=77 unresolved=17}",
     504723941u, 4182125693u},
    {"ParallelSL/IND/dollar/ac1/faulty/p2off",
     110, 3934701802u, 86, 2586468694u, 435, 78,
     "termination{reason=dollar_cap governed=1 rounds=4 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=78 unresolved=17}",
     504723941u, 3823683145u},
    {"ParallelSL/IND/dollar/ac2/clean/default",
     126, 800248763u, 98, 3721922457u, 130, 98,
     "termination{reason=dollar_cap governed=1 rounds=3 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=98 unresolved=0}",
     4037388022u, 2574904546u},
    {"ParallelSL/IND/dollar/ac2/clean/p2off",
     126, 800248763u, 98, 3721922457u, 215, 98,
     "termination{reason=dollar_cap governed=1 rounds=3 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=98 unresolved=0}",
     4037388022u, 2574904546u},
    {"ParallelSL/IND/dollar/ac2/faulty/default",
     129, 1935246073u, 109, 2010973442u, 244, 99,
     "termination{reason=dollar_cap governed=1 rounds=3 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=99 unresolved=18}",
     1443778574u, 1587521720u},
    {"ParallelSL/IND/dollar/ac2/faulty/p2off",
     129, 1935246073u, 109, 2010973442u, 213, 99,
     "termination{reason=dollar_cap governed=1 rounds=3 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=99 unresolved=18}",
     1443778574u, 1587521720u},
    {"ParallelSL/IND/round/ac1/clean/default",
     67, 1129950659u, 32, 2718531055u, 6, 32,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=2.90 "
     "cost_cap=0.00 round_cap=8 denied=32 unresolved=0}",
     3014340502u, 610152336u},
    {"ParallelSL/IND/round/ac1/clean/p2off",
     67, 224176918u, 31, 3502680729u, 840, 31,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=2.90 "
     "cost_cap=0.00 round_cap=8 denied=31 unresolved=0}",
     485252296u, 1991467002u},
    {"ParallelSL/IND/round/ac1/faulty/default",
     93, 30626999u, 69, 4101561344u, 43, 52,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=3.00 "
     "cost_cap=0.00 round_cap=8 denied=52 unresolved=35}",
     382580172u, 2310332122u},
    {"ParallelSL/IND/round/ac1/faulty/p2off",
     93, 2603028641u, 67, 2698392495u, 856, 47,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=3.00 "
     "cost_cap=0.00 round_cap=8 denied=47 unresolved=34}",
     2910272887u, 867842080u},
    {"ParallelSL/IND/round/ac2/clean/default",
     112, 95161933u, 64, 1802855571u, 721, 64,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=6.00 "
     "cost_cap=0.00 round_cap=8 denied=64 unresolved=0}",
     48314923u, 313226089u},
    {"ParallelSL/IND/round/ac2/clean/p2off",
     113, 4250703583u, 67, 1210394026u, 1833, 67,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=5.80 "
     "cost_cap=0.00 round_cap=8 denied=67 unresolved=0}",
     1233752181u, 264371416u},
    {"ParallelSL/IND/round/ac2/faulty/default",
     123, 252557274u, 100, 600607769u, 335, 70,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=6.10 "
     "cost_cap=0.00 round_cap=8 denied=70 unresolved=78}",
     3412266544u, 785017336u},
    {"ParallelSL/IND/round/ac2/faulty/p2off",
     120, 2057338065u, 97, 2275632790u, 2341, 70,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=6.20 "
     "cost_cap=0.00 round_cap=8 denied=70 unresolved=82}",
     438038772u, 2836889039u},
    {"ParallelSL/IND/questions/ac1/clean/default",
     120, 388918777u, 98, 919345906u, 0, 0,
     "termination{reason=completed governed=0 rounds=2 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2953157254u, 1795250131u},
    {"ParallelSL/IND/questions/ac1/clean/p2off",
     120, 388918777u, 98, 919345906u, 258, 0,
     "termination{reason=completed governed=0 rounds=2 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     2953157254u, 535529263u},
    {"ParallelSL/IND/questions/ac1/faulty/default",
     121, 2290499548u, 100, 4066051781u, 3, 0,
     "termination{reason=completed governed=0 rounds=2 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     2953157254u, 1280049350u},
    {"ParallelSL/IND/questions/ac1/faulty/p2off",
     121, 2290499548u, 100, 4066051781u, 256, 0,
     "termination{reason=completed governed=0 rounds=2 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     2953157254u, 1280049350u},
    {"ParallelSL/IND/questions/ac2/clean/default",
     129, 1935246073u, 108, 1176381253u, 98, 0,
     "termination{reason=completed governed=0 rounds=1 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     1212630713u, 2454982481u},
    {"ParallelSL/IND/questions/ac2/clean/p2off",
     129, 1935246073u, 108, 1176381253u, 138, 0,
     "termination{reason=completed governed=0 rounds=1 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     1212630713u, 2454982481u},
    {"ParallelSL/IND/questions/ac2/faulty/default",
     129, 1935246073u, 111, 3572114182u, 98, 0,
     "termination{reason=completed governed=0 rounds=1 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     1212630713u, 1190899036u},
    {"ParallelSL/IND/questions/ac2/faulty/p2off",
     129, 1935246073u, 111, 3572114182u, 138, 0,
     "termination{reason=completed governed=0 rounds=1 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     1212630713u, 1190899036u},
    {"ParallelSL/ANT/dollar/ac1/clean/default",
     121, 1660467798u, 57, 2717925090u, 3, 57,
     "termination{reason=dollar_cap governed=1 rounds=3 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=57 unresolved=0}",
     2978261918u, 2122031244u},
    {"ParallelSL/ANT/dollar/ac1/clean/p2off",
     121, 1660467798u, 58, 3537828366u, 213, 58,
     "termination{reason=dollar_cap governed=1 rounds=3 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=58 unresolved=0}",
     2978261918u, 1537711475u},
    {"ParallelSL/ANT/dollar/ac1/faulty/default",
     124, 3700005811u, 67, 923501669u, 17, 59,
     "termination{reason=dollar_cap governed=1 rounds=3 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=59 unresolved=18}",
     4236477184u, 4284542865u},
    {"ParallelSL/ANT/dollar/ac1/faulty/p2off",
     125, 96270603u, 68, 1487724197u, 216, 59,
     "termination{reason=dollar_cap governed=1 rounds=3 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=59 unresolved=18}",
     4236477184u, 1699487372u},
    {"ParallelSL/ANT/dollar/ac2/clean/default",
     128, 2322343674u, 76, 3786045883u, 52, 76,
     "termination{reason=dollar_cap governed=1 rounds=2 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=76 unresolved=0}",
     568981826u, 1584854135u},
    {"ParallelSL/ANT/dollar/ac2/clean/p2off",
     128, 2322343674u, 76, 3786045883u, 138, 76,
     "termination{reason=dollar_cap governed=1 rounds=2 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=76 unresolved=0}",
     568981826u, 1584854135u},
    {"ParallelSL/ANT/dollar/ac2/faulty/default",
     129, 2977586117u, 88, 1969700565u, 69, 78,
     "termination{reason=dollar_cap governed=1 rounds=2 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=78 unresolved=18}",
     2597546948u, 3631739828u},
    {"ParallelSL/ANT/dollar/ac2/faulty/p2off",
     129, 2977586117u, 88, 1969700565u, 138, 78,
     "termination{reason=dollar_cap governed=1 rounds=2 cost_spent=1.50 "
     "cost_cap=1.50 round_cap=0 denied=78 unresolved=18}",
     2597546948u, 3631739828u},
    {"ParallelSL/ANT/round/ac1/clean/default",
     105, 3635658811u, 7, 3187628885u, 14, 7,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=3.80 "
     "cost_cap=0.00 round_cap=8 denied=7 unresolved=0}",
     1541386672u, 3213282326u},
    {"ParallelSL/ANT/round/ac1/clean/p2off",
     109, 3083868511u, 8, 1955100208u, 451, 8,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=3.80 "
     "cost_cap=0.00 round_cap=8 denied=8 unresolved=0}",
     1460539819u, 1817858015u},
    {"ParallelSL/ANT/round/ac1/faulty/default",
     114, 496632141u, 39, 3101339036u, 39, 14,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=4.30 "
     "cost_cap=0.00 round_cap=8 denied=14 unresolved=54}",
     659237637u, 1240894093u},
    {"ParallelSL/ANT/round/ac1/faulty/p2off",
     118, 2561148703u, 47, 392306654u, 469, 21,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=4.50 "
     "cost_cap=0.00 round_cap=8 denied=21 unresolved=56}",
     2607082538u, 3333020388u},
    {"ParallelSL/ANT/round/ac2/clean/default",
     120, 812888525u, 40, 4183484637u, 227, 40,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=6.90 "
     "cost_cap=0.00 round_cap=8 denied=40 unresolved=0}",
     4217547671u, 3685150484u},
    {"ParallelSL/ANT/round/ac2/clean/p2off",
     124, 1597325184u, 40, 1441769425u, 1070, 40,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=6.70 "
     "cost_cap=0.00 round_cap=8 denied=40 unresolved=0}",
     3385561593u, 3785789406u},
    {"ParallelSL/ANT/round/ac2/faulty/default",
     126, 2135604112u, 78, 776685783u, 295, 48,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=7.30 "
     "cost_cap=0.00 round_cap=8 denied=48 unresolved=98}",
     4200911011u, 2469251554u},
    {"ParallelSL/ANT/round/ac2/faulty/p2off",
     123, 1011128547u, 78, 3067263225u, 1099, 50,
     "termination{reason=round_cap governed=1 rounds=8 cost_spent=7.40 "
     "cost_cap=0.00 round_cap=8 denied=50 unresolved=98}",
     2957345768u, 58679733u},
    {"ParallelSL/ANT/questions/ac1/clean/default",
     128, 2409399321u, 81, 514429214u, 1, 0,
     "termination{reason=completed governed=0 rounds=1 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     1212630713u, 2583288172u},
    {"ParallelSL/ANT/questions/ac1/clean/p2off",
     128, 2409399321u, 82, 833343887u, 106, 0,
     "termination{reason=completed governed=0 rounds=1 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     1212630713u, 1787612809u},
    {"ParallelSL/ANT/questions/ac1/faulty/default",
     128, 2409399321u, 82, 2875353167u, 2, 0,
     "termination{reason=completed governed=0 rounds=1 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     1212630713u, 131335065u},
    {"ParallelSL/ANT/questions/ac1/faulty/p2off",
     128, 2409399321u, 83, 2501760113u, 104, 0,
     "termination{reason=completed governed=0 rounds=1 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     1212630713u, 4104197244u},
    {"ParallelSL/ANT/questions/ac2/clean/default",
     129, 2977586117u, 90, 2100842878u, 20, 0,
     "termination{reason=completed governed=0 rounds=1 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     1212630713u, 1389686447u},
    {"ParallelSL/ANT/questions/ac2/clean/p2off",
     129, 2977586117u, 90, 2100842878u, 13, 0,
     "termination{reason=completed governed=0 rounds=1 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=0}",
     1212630713u, 1389686447u},
    {"ParallelSL/ANT/questions/ac2/faulty/default",
     129, 2977586117u, 92, 1229101281u, 19, 0,
     "termination{reason=completed governed=0 rounds=1 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     1212630713u, 2355975571u},
    {"ParallelSL/ANT/questions/ac2/faulty/p2off",
     129, 2977586117u, 92, 1229101281u, 13, 0,
     "termination{reason=completed governed=0 rounds=1 cost_spent=0.00 "
     "cost_cap=0.00 round_cap=0 denied=0 unresolved=4}",
     1212630713u, 2355975571u},
};

enum class Cap { kDollar, kRound, kQuestions };

const char* CapName(Cap cap) {
  switch (cap) {
    case Cap::kDollar:
      return "dollar";
    case Cap::kRound:
      return "round";
    case Cap::kQuestions:
      return "questions";
  }
  return "?";
}

template <typename T>
uint32_t JoinedCrc(const std::vector<T>& values) {
  std::ostringstream os;
  for (const T& v : values) os << v << ',';
  return persist::Crc32(os.str());
}

uint32_t FileCrc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return persist::Crc32(bytes);
}

std::string RowLiteral(const std::string& cell, const GoldenRow& r) {
  std::ostringstream os;
  // Split the termination string so every row stays within 80 columns.
  const std::string term = r.termination;
  const size_t split = term.find(" cost_cap=") + 1;
  os << "    {\"" << cell << "\",\n     " << r.skyline_size << ", "
     << r.skyline_crc << "u, " << r.undetermined << ", "
     << r.undetermined_crc << "u, " << r.free_lookups << ", " << r.denied
     << ",\n     \"" << term.substr(0, split) << "\"\n     \""
     << term.substr(split) << "\",\n     " << r.rounds_crc << "u, "
     << r.journal_crc << "u},";
  return os.str();
}

const GoldenRow* FindGolden(const std::string& cell) {
  for (const GoldenRow& row : kGolden) {
    if (cell == row.cell) return &row;
  }
  return nullptr;
}

using Param = std::tuple<Algorithm, DataDistribution, Cap>;

class GovernorSettleGoldenTest : public ::testing::TestWithParam<Param> {};

TEST_P(GovernorSettleGoldenTest, CappedLedgersMatchGolden) {
  const auto [algo, dist, cap] = GetParam();
  for (const int num_crowd : {1, 2}) {
    for (const bool faulty : {false, true}) {
      for (const bool p2_off : {false, true}) {
        std::ostringstream name;
        name << AlgorithmName(algo) << '/' << DataDistributionName(dist)
             << '/' << CapName(cap) << "/ac" << num_crowd << '/'
             << (faulty ? "faulty" : "clean") << '/'
             << (p2_off ? "p2off" : "default");
        const std::string cell = name.str();
        SCOPED_TRACE(cell);

        GeneratorOptions gen;
        gen.cardinality = 130;  // closure rows span three 64-bit words
        gen.num_known = 3;
        gen.num_crowd = num_crowd;
        gen.distribution = dist;
        gen.seed = 11;
        const Dataset ds = GenerateDataset(gen).ValueOrDie();

        EngineOptions opt;
        opt.algorithm = algo;
        opt.oracle = OracleKind::kMarketplace;
        opt.seed = 5;
        opt.crowdsky.audit = true;
        if (p2_off) opt.crowdsky.pruning.use_p2 = false;
        if (faulty) {
          // No retries against a 30% platform error rate: about one
          // question in three is left unresolved.
          opt.marketplace.faults.transient_error_rate = 0.3;
          opt.retry.max_retries = 0;
        }
        switch (cap) {
          case Cap::kDollar:
            opt.governor.max_cost_usd = 1.5;
            break;
          case Cap::kRound:
            opt.governor.max_rounds = 8;
            break;
          case Cap::kQuestions:
            opt.max_questions = 25;
            break;
        }
        opt.durability.dir = testing::FreshTempDir("settle_golden");

        const auto r = RunSkylineQuery(ds, opt);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        const AlgoResult& a = r->algo;
        // Every cell must actually run out of funding, or it pins nothing
        // about the capped tail.
        ASSERT_GT(a.incomplete_tuples, 0);
        if (faulty) {
          EXPECT_FALSE(a.termination.unresolved.empty());
        }

        const std::string termination = a.termination.ToString();
        GoldenRow actual{cell.c_str(),
                         static_cast<int64_t>(a.skyline.size()),
                         JoinedCrc(a.skyline),
                         static_cast<int64_t>(
                             a.completeness.undetermined_tuples.size()),
                         JoinedCrc(a.completeness.undetermined_tuples),
                         a.free_lookups,
                         a.termination.denied_questions,
                         termination.c_str(),
                         JoinedCrc(a.questions_per_round),
                         FileCrc(persist::JournalPath(opt.durability.dir))};
        const GoldenRow* want = FindGolden(cell);
        if (want == nullptr) {
          ADD_FAILURE() << "no golden row; actual:\n"
                        << RowLiteral(cell, actual);
          continue;
        }
        EXPECT_EQ(actual.skyline_size, want->skyline_size);
        EXPECT_EQ(actual.skyline_crc, want->skyline_crc);
        EXPECT_EQ(actual.undetermined, want->undetermined);
        EXPECT_EQ(actual.undetermined_crc, want->undetermined_crc);
        EXPECT_EQ(actual.free_lookups, want->free_lookups);
        EXPECT_EQ(actual.denied, want->denied);
        EXPECT_EQ(termination, want->termination);
        EXPECT_EQ(actual.rounds_crc, want->rounds_crc);
        EXPECT_EQ(actual.journal_crc, want->journal_crc)
            << "actual:\n" << RowLiteral(cell, actual);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, GovernorSettleGoldenTest,
    ::testing::Combine(::testing::Values(Algorithm::kCrowdSkySerial,
                                         Algorithm::kParallelDSet,
                                         Algorithm::kParallelSL),
                       ::testing::Values(DataDistribution::kIndependent,
                                         DataDistribution::kAntiCorrelated),
                       ::testing::Values(Cap::kDollar, Cap::kRound,
                                         Cap::kQuestions)),
    [](const ::testing::TestParamInfo<Param>& p) {
      return std::string(AlgorithmName(std::get<0>(p.param))) + "_" +
             DataDistributionName(std::get<1>(p.param)) + "_" +
             CapName(std::get<2>(p.param));
    });

}  // namespace
}  // namespace crowdsky
