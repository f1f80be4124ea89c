// Umbrella header: the whole public API of mpc-ruling-sets.
//
//   #include "rsets.hpp"
//
// pulls in the graph toolkit, verification, both simulators, and every
// ruling-set algorithm. Fine-grained headers remain available for faster
// compiles; this exists for examples, quick tools, and downstream users who
// prefer one include.
#pragma once

// Graph substrate.
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/ops.hpp"
#include "graph/verify.hpp"

// MPC substrate.
#include "mpc/dist_graph.hpp"
#include "mpc/primitives.hpp"
#include "mpc/simulator.hpp"

// CONGEST substrate and its algorithms.
#include "congest/aglp_ruling.hpp"
#include "congest/beta_ruling_congest.hpp"
#include "congest/coloring_mis.hpp"
#include "congest/congest.hpp"
#include "congest/det_ruling_congest.hpp"
#include "congest/luby_congest.hpp"

// Derandomization toolkit.
#include "core/seed_fixing.hpp"
#include "util/hash_family.hpp"

// Core algorithms and the dispatcher.
#include "core/det_luby.hpp"
#include "core/det_matching.hpp"
#include "core/det_ruling.hpp"
#include "core/greedy.hpp"
#include "core/luby.hpp"
#include "core/ruling_set.hpp"
#include "core/sample_gather.hpp"
