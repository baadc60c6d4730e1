#include "dot_writer.hh"

#include <ostream>
#include <sstream>
#include <unordered_map>

#include "core/comm_stats.hh"

namespace sigil::cdfg {

namespace {

/** Escape a label for DOT. */
std::string
escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
nodeId(vg::ContextId ctx)
{
    if (ctx == core::kUninitProducer)
        return "uninit";
    std::string id = "n";
    id += std::to_string(ctx);
    return id;
}

bool
nodeVisible(const Cdfg &graph, const CdfgNode &node,
            const DotOptions &options)
{
    if (options.minNodeShare <= 0.0)
        return true;
    double total = static_cast<double>(graph.totalCycles());
    if (total <= 0.0)
        return true;
    return static_cast<double>(node.inclCycles) / total >=
           options.minNodeShare;
}

} // namespace

void
writeDot(std::ostream &os, const Cdfg &graph, const DotOptions &options)
{
    os << "digraph cdfg {\n";
    os << "  rankdir=TB;\n";
    os << "  node [shape=ellipse, fontsize=10];\n";

    for (const CdfgNode &n : graph.nodes()) {
        if (!nodeVisible(graph, n, options))
            continue;
        if (!options.showInput && n.fnName == "*input*")
            continue;
        os << "  " << nodeId(n.ctx) << " [label=\""
           << escape(n.displayName) << "\\nops=" << n.inclOps << "\"];\n";
    }

    // Call edges (solid, the calltree).
    for (const CdfgNode &n : graph.nodes()) {
        if (n.parent == vg::kInvalidContext)
            continue;
        if (!nodeVisible(graph, n, options) ||
            !nodeVisible(graph, graph.node(n.parent), options))
            continue;
        if (!options.showInput && n.fnName == "*input*")
            continue;
        os << "  " << nodeId(n.parent) << " -> " << nodeId(n.ctx)
           << " [style=solid];\n";
    }

    // Dependency edges (dashed, weighted by unique bytes).
    bool saw_uninit = false;
    for (const CdfgEdge &e : graph.edges()) {
        if (e.uniqueBytes < options.minEdgeBytes)
            continue;
        if (e.producer >= 0) {
            const CdfgNode &p = graph.node(e.producer);
            if (!nodeVisible(graph, p, options))
                continue;
            if (!options.showInput && p.fnName == "*input*")
                continue;
        } else {
            if (!options.showInput)
                continue;
            saw_uninit = true;
        }
        if (!nodeVisible(graph, graph.node(e.consumer), options))
            continue;
        os << "  " << nodeId(e.producer) << " -> " << nodeId(e.consumer)
           << " [style=dashed, label=\"" << e.uniqueBytes << "\"];\n";
    }
    if (saw_uninit)
        os << "  uninit [label=\"<uninitialized>\", shape=box];\n";
    os << "}\n";
}

void
writeTrimmedDot(std::ostream &os, const Cdfg &graph,
                const PartitionResult &parts, const DotOptions &options)
{
    // Map every context to its representative: the candidate whose
    // subtree swallows it, or itself.
    std::unordered_map<vg::ContextId, vg::ContextId> rep;
    for (const Candidate &c : parts.candidates) {
        for (const CdfgNode &n : graph.nodes()) {
            if (graph.isAncestorOrSelf(c.ctx, n.ctx))
                rep[n.ctx] = c.ctx;
        }
    }
    auto repOf = [&](vg::ContextId ctx) {
        auto it = rep.find(ctx);
        return it == rep.end() ? ctx : it->second;
    };
    auto isCandidate = [&](vg::ContextId ctx) {
        return rep.count(ctx) != 0 && rep.at(ctx) == ctx;
    };

    os << "digraph trimmed {\n";
    os << "  rankdir=TB;\n";
    os << "  node [fontsize=10];\n";

    for (const CdfgNode &n : graph.nodes()) {
        if (repOf(n.ctx) != n.ctx)
            continue; // merged away
        if (!options.showInput && n.fnName == "*input*")
            continue;
        if (isCandidate(n.ctx)) {
            BreakevenResult be = breakeven(n, BreakevenParams{});
            os << "  " << nodeId(n.ctx) << " [shape=box, label=\""
               << escape(n.displayName) << "\\nops=" << n.inclOps
               << "\\nS_be=";
            std::ostringstream val;
            if (be.viable())
                val.precision(4);
            if (be.viable())
                val << be.speedup;
            else
                val << "inf";
            os << val.str() << "\"];\n";
        } else {
            os << "  " << nodeId(n.ctx) << " [shape=ellipse, label=\""
               << escape(n.displayName) << "\"];\n";
        }
    }

    // Call edges between representatives.
    for (const CdfgNode &n : graph.nodes()) {
        if (n.parent == vg::kInvalidContext || repOf(n.ctx) != n.ctx)
            continue;
        if (!options.showInput && n.fnName == "*input*")
            continue;
        vg::ContextId p = repOf(n.parent);
        if (p != n.ctx) {
            os << "  " << nodeId(p) << " -> " << nodeId(n.ctx)
               << " [style=solid];\n";
        }
    }

    // Dependency edges, accumulated between representatives (edges
    // internal to a box are discarded, as in Figure 2).
    std::unordered_map<std::uint64_t, std::uint64_t> merged;
    for (const CdfgEdge &e : graph.edges()) {
        vg::ContextId p =
            e.producer >= 0 ? repOf(e.producer) : e.producer;
        vg::ContextId c = repOf(e.consumer);
        if (p == c)
            continue;
        std::uint64_t key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p))
             << 32) |
            static_cast<std::uint32_t>(c);
        merged[key] += e.uniqueBytes;
    }
    bool saw_uninit = false;
    for (const auto &[key, bytes] : merged) {
        if (bytes < options.minEdgeBytes)
            continue;
        vg::ContextId p = static_cast<vg::ContextId>(
            static_cast<std::int32_t>(key >> 32));
        vg::ContextId c = static_cast<vg::ContextId>(
            static_cast<std::int32_t>(key & 0xffffffff));
        if (p < 0) {
            if (!options.showInput)
                continue;
            if (p == core::kUninitProducer)
                saw_uninit = true;
        } else if (!options.showInput &&
                   graph.node(p).fnName == "*input*") {
            continue;
        }
        os << "  " << nodeId(p) << " -> " << nodeId(c)
           << " [style=dashed, label=\"" << bytes << "\"];\n";
    }
    if (saw_uninit)
        os << "  uninit [label=\"<uninitialized>\", shape=box];\n";
    os << "}\n";
}

std::string
dotString(const Cdfg &graph, const DotOptions &options)
{
    std::ostringstream os;
    writeDot(os, graph, options);
    return os.str();
}

} // namespace sigil::cdfg
