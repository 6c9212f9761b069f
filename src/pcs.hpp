// Umbrella header for the pcs library: multichip partial concentrator
// switches after Cormen (MIT-LCS-TM-322, 1987), with the mesh-sorting,
// gate-level, cost-model, and message-routing substrates they rest on.
//
// Layering (each layer only depends on the ones above it):
//   util    -- bit vectors/matrices, integer math, RNG, parallel_for
//   obs     -- tracing/profiling spans and counters (Chrome trace export)
//   sortnet -- Revsort / Shearsort / Columnsort on 0/1 meshes, nearsortedness
//   gates   -- combinational netlists, depth analysis, evaluation
//   hyper   -- the single-chip hyperconcentrator (functional + gate-level)
//   plan    -- the staged-plan IR every switch family compiles to, plus the
//              one executor (scalar, batch, fault-rewritten) that runs it
//   switch  -- make_switch (every family as a plan), the gate-level
//              realization, and the switches that are not chip stages
//   cost    -- pins / chips / boards / area / volume / delay (Table 1)
//   traffic -- spatial patterns x injection processes, trace record/replay,
//              bound-stress search
//   message -- bit-serial streaming, the drop-and-resend ack protocol, the
//              pipelined-throughput model
//   network -- two-level concentration hierarchies and round simulation
//   core    -- executable lemmas/theorems, bounds, adversarial search
//   runtime -- closed-loop serving layer: queues, admission, Section 1's
//              congestion policies, epoch-batched routing, phased
//              campaigns, metrics export
//   fabric  -- multi-hop networks of plan-compiled switches: declarative
//              FabricSpec/make_fabric, credit flow control, VOQ allocation,
//              pluggable route policies, pipelined epoch execution
#pragma once

#include "util/assert.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvec.hpp"
#include "util/digest.hpp"
#include "util/mathutil.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "obs/trace.hpp"

#include "sortnet/columnsort.hpp"
#include "sortnet/comparator_net.hpp"
#include "sortnet/displacement.hpp"
#include "sortnet/lane_batch.hpp"
#include "sortnet/mesh_ops.hpp"
#include "sortnet/nearsort.hpp"
#include "sortnet/revsort.hpp"
#include "sortnet/shearsort.hpp"

#include "gates/builder.hpp"
#include "gates/circuit.hpp"
#include "gates/evaluator.hpp"

#include "hyper/barrel_shifter.hpp"
#include "hyper/hyper_circuit.hpp"
#include "hyper/hyperconcentrator.hpp"
#include "hyper/prefix_butterfly.hpp"

#include "plan/compile.hpp"
#include "plan/plan_executor.hpp"
#include "plan/plan_switch.hpp"
#include "plan/switch_plan.hpp"

#include "switch/concentrator.hpp"
#include "switch/gate_level_switch.hpp"
#include "switch/comparator_switch.hpp"
#include "switch/make_switch.hpp"
#include "switch/perfect_from_partial.hpp"
#include "switch/prefix_butterfly_switch.hpp"
#include "switch/wiring.hpp"

#include "cost/layout.hpp"
#include "cost/resource_model.hpp"
#include "cost/render.hpp"
#include "cost/scaling.hpp"
#include "cost/table1.hpp"

#include "traffic/factory.hpp"
#include "traffic/injection.hpp"
#include "traffic/pattern.hpp"
#include "traffic/search.hpp"
#include "traffic/trace.hpp"
#include "traffic/traffic_source.hpp"

#include "message/ack_protocol.hpp"
#include "message/clocked_sim.hpp"
#include "message/message.hpp"
#include "message/pipeline.hpp"

#include "network/concentrator_tree.hpp"
#include "network/knockout.hpp"
#include "network/multistage.hpp"
#include "network/router_sim.hpp"

#include "core/adversary.hpp"
#include "core/bounds.hpp"
#include "core/epsilon_stats.hpp"
#include "core/invariants.hpp"
#include "core/lemmas.hpp"
#include "core/verification.hpp"

#include "runtime/config.hpp"
#include "runtime/fabric_runtime.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace_bridge.hpp"

#include "fabric/allocator.hpp"
#include "fabric/fabric_config.hpp"
#include "fabric/fabric_sim.hpp"
#include "fabric/fabric_spec.hpp"
#include "fabric/make_fabric.hpp"
#include "fabric/route_policy.hpp"
#include "fabric/topology.hpp"
