#ifndef STATDB_EXEC_PARTIAL_STATS_H_
#define STATDB_EXEC_PARTIAL_STATS_H_

// The mergeable partial states moved to stats/ so that simd/ and the
// maintainers in rules/ share them; this path keeps exec's spelling.
#include "stats/partial_stats.h"  // IWYU pragma: export

#endif  // STATDB_EXEC_PARTIAL_STATS_H_
