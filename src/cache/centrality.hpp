#pragma once

/// \file centrality.hpp
/// Contact-capability centrality and Network Central Location selection.
///
/// The cooperative-caching substrate (Gao et al., INFOCOM 2011) caches data
/// at Network Central Locations: the nodes best able to meet the rest of
/// the network. A node's metric is its expected reach within a window T,
///     C_i(T) = (1 / (N-1)) · Σ_{j≠i} (1 − e^{−λ_ij·T}),
/// i.e. the mean probability of meeting a random other node within T.
/// NCLs are the top-K nodes by this metric, greedily de-clustered: picking
/// two NCLs that mostly meet the *same* nodes wastes a slot, so after the
/// first pick each candidate's marginal coverage is what counts.
///
/// Every sum and greedy update walks a node's pairs one of two ways. With a
/// zero default (never-met) rate the walk visits the matrix's stored
/// neighbors only (trace/pair_index.hpp), so on a sparse matrix centrality
/// costs O(E + nk) instead of O(n²k). That is bit-identical to visiting
/// every node — a never-met pair contributes exactly 1 − e⁰ = 0.0 to every
/// sum and multiplies coverage by exactly 1.0, so skipping it cannot change
/// any accumulation, comparison, or tie-break. With a nonzero default rate
/// the walk looks up every j instead, in the same ascending order.

#include <cstddef>
#include <vector>

#include "sim/time.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::cache {

/// C_i(T) for every node.
std::vector<double> contactCapability(const trace::RateMatrix& rates, sim::SimTime window);

/// Top-k nodes by raw capability (ties broken by node id for determinism).
std::vector<NodeId> selectTopCapability(const trace::RateMatrix& rates, sim::SimTime window,
                                        std::size_t k);

/// Greedy marginal-coverage NCL selection: each pick maximizes the increase
/// of E[#nodes covered within T by at least one NCL]. Reduces to top-k when
/// coverage overlaps are negligible; differs (better) in community-
/// structured networks where top-k piles into one community.
std::vector<NodeId> selectNcls(const trace::RateMatrix& rates, sim::SimTime window,
                               std::size_t k);

}  // namespace dtncache::cache
