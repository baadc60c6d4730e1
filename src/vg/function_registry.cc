#include "function_registry.hh"

#include "support/logging.hh"

namespace sigil::vg {

FunctionId
FunctionRegistry::intern(std::string_view name)
{
    auto it = byName_.find(std::string(name));
    if (it != byName_.end())
        return it->second;
    FunctionId id = static_cast<FunctionId>(names_.size());
    names_.emplace_back(name);
    byName_.emplace(names_.back(), id);
    return id;
}

FunctionId
FunctionRegistry::find(std::string_view name) const
{
    auto it = byName_.find(std::string(name));
    return it == byName_.end() ? kInvalidFunction : it->second;
}

const std::string &
FunctionRegistry::name(FunctionId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= names_.size())
        panic("FunctionRegistry::name: bad id %d", id);
    return names_[static_cast<std::size_t>(id)];
}

} // namespace sigil::vg
