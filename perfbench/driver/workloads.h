// The three workloads. Each fills `report` with every end-to-end metric
// (args.trace == false) or every per-layer metric from its traced replay
// (args.trace == true), and runs its digest oracles either way.
#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

void RunFleetDirect(const Args& args, Report& report);
void RunTcpWal(const Args& args, Report& report);
void RunSlotStream(const Args& args, Report& report);

/// Where a traced replay writes its spans.
std::string TracePath(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
