// The CuckooGraph Redis module of Section V-F: a graph store exposed as
// a CG.* command family on a CommandTable. Mirrors how the paper embeds
// the structure in Redis — the graph lives inside the server process,
// and clients reach it only through protocol round trips.
//
// Commands (node ids are decimal uint32 strings; replies follow Redis
// conventions):
//   CG.INSERT u v    -> :1 if the edge is new, :0 if it already existed
//   CG.QUERY  u v    -> :1 if present, :0 if absent
//   CG.DEL    u v    -> :1 if the edge existed (and was removed), :0 if not
//   CG.DELETE u v    -> alias of CG.DEL
//   CG.DEGREE u      -> :out-degree of u (0 when absent)
//   CG.NEIGHBORS u   -> array of bulk strings, u's successors (empty array
//                       when u is absent; order unspecified)
// Malformed node ids answer "-ERR value is not an integer or out of
// range", and the table supplies wrong-arity / unknown-command errors.
#ifndef CUCKOOGRAPH_REDIS_SIM_CUCKOOGRAPH_MODULE_H_
#define CUCKOOGRAPH_REDIS_SIM_CUCKOOGRAPH_MODULE_H_

#include "core/cuckoo_graph.h"
#include "core/graph_store.h"
#include "redis_sim/command_table.h"
#include "redis_sim/module_host.h"

namespace cuckoograph::redis_sim {

// Registers the CG.* command family over any GraphStore (`store` must
// outlive the table's use of the handlers). With a store advertising
// Capabilities().concurrent_mutations (e.g. cuckoo-sharded) the handlers
// are safe to dispatch from several server workers at once; CG.NEIGHBORS
// drains the sharded store's Neighbors() copy, taken under the shard's
// reader lock.
void RegisterGraphCommands(CommandTable* table, GraphStore* store);

// The self-contained module: owns a single-threaded CuckooGraph and
// registers it. For the sim and the single-worker server; multi-worker
// servers register a concurrent store via RegisterGraphCommands.
class CuckooGraphModule {
 public:
  // Registers the CG.* command family on `table`. The module must
  // outlive the table's use of the handlers (they capture the graph).
  void Register(CommandTable* table) { RegisterGraphCommands(table, &graph_); }

  // Convenience for the in-process sim wrapper.
  void Register(RedisServerSim* server) { Register(server->command_table()); }

  // The module's graph, e.g. for state checks in tests.
  const CuckooGraph& graph() const { return graph_; }

 private:
  CuckooGraph graph_;
};

}  // namespace cuckoograph::redis_sim

#endif  // CUCKOOGRAPH_REDIS_SIM_CUCKOOGRAPH_MODULE_H_
