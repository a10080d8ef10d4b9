#ifndef CORRMINE_IO_SHARDED_LOADER_H_
#define CORRMINE_IO_SHARDED_LOADER_H_

// Forwarding header, part of the benchmark compat block at the end of
// core/session.h: perfbench/harness.cc is its only includer, and it goes
// with that block at the next benchmark revision.
#include "core/session.h"

#endif  // CORRMINE_IO_SHARDED_LOADER_H_
