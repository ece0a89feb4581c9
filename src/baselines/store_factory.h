// The GraphStore factory: the comparison benches (Figures 6-9, Table III,
// the analytics figures) enumerate AllSchemeNames() for their columns and
// instantiate each scheme with MakeStoreByName().
//
// The schemes are one fixed table in store_factory.cc: CuckooGraph plus
// the three baseline stand-ins in the paper's column order, then the
// extended stores (weighted, sharded, and the two durable decorators).
// A new scheme is a new row there.
#ifndef CUCKOOGRAPH_BASELINES_STORE_FACTORY_H_
#define CUCKOOGRAPH_BASELINES_STORE_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/graph_store.h"
#include "persist/durable_store.h"

namespace cuckoograph {

// Scheme names in table order (the paper's columns first).
std::vector<std::string> AllSchemeNames();

// Instantiates the named scheme. Throws std::invalid_argument with a
// message listing every valid scheme when the name is unknown.
std::unique_ptr<GraphStore> MakeStoreByName(const std::string& name);

// Opens the named durable scheme ("cuckoo-durable" or
// "cuckoo-sharded-durable") over caller-chosen DurableOptions — an
// explicit directory, sync mode, checkpoint cadence, fault-injection
// factory. This is how the durability benches and crash tests get a
// recoverable instance; the table's own entries of the same names use
// an ephemeral owned temp dir with syncs off instead. Throws
// std::invalid_argument for a non-durable name, std::runtime_error when
// the directory cannot be opened/recovered.
std::unique_ptr<persist::DurableStore> MakeDurableStoreByName(
    const std::string& name, const persist::DurableOptions& opts);

// Parses a comma-separated scheme list (the benches' --schemes flag),
// validating each entry through the same unknown-name path as
// MakeStoreByName. An empty string selects every scheme.
std::vector<std::string> ParseSchemesFlag(const std::string& csv);

}  // namespace cuckoograph

#endif  // CUCKOOGRAPH_BASELINES_STORE_FACTORY_H_
