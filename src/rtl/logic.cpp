#include "rtl/logic.hpp"

namespace fxg::rtl {

Logic logic_and(Logic a, Logic b) noexcept {
    if (a == Logic::L0 || b == Logic::L0) return Logic::L0;
    if (a == Logic::L1 && b == Logic::L1) return Logic::L1;
    return Logic::X;
}

Logic logic_or(Logic a, Logic b) noexcept {
    if (a == Logic::L1 || b == Logic::L1) return Logic::L1;
    if (a == Logic::L0 && b == Logic::L0) return Logic::L0;
    return Logic::X;
}

Logic logic_xor(Logic a, Logic b) noexcept {
    if (!is_known(a) || !is_known(b)) return Logic::X;
    return to_logic(to_bool(a) != to_bool(b));
}

Logic logic_not(Logic a) noexcept {
    if (!is_known(a)) return Logic::X;
    return to_logic(!to_bool(a));
}

char logic_char(Logic v) noexcept {
    switch (v) {
        case Logic::L0: return '0';
        case Logic::L1: return '1';
        case Logic::X: return 'X';
        case Logic::Z: return 'Z';
    }
    return '?';
}

}  // namespace fxg::rtl
