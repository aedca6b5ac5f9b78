#pragma once

/// \file logic.hpp
/// Four-state logic values for the event-driven digital kernel.
///
/// The paper's digital section was described in VHDL and simulated with
/// Compass Design Automation tools; this kernel plays that role. Four
/// states (0, 1, X unknown, Z high-impedance) are enough to model the
/// compass back-end and to catch un-initialised registers in tests.

#include <cstdint>

namespace fxg::rtl {

/// One logic value.
enum class Logic : std::uint8_t {
    L0 = 0,  ///< strong low
    L1 = 1,  ///< strong high
    X = 2,   ///< unknown
    Z = 3,   ///< high impedance (undriven)
};

/// True for L0/L1 — values that carry information.
constexpr bool is_known(Logic v) noexcept { return v == Logic::L0 || v == Logic::L1; }

/// Converts a bool to Logic.
constexpr Logic to_logic(bool b) noexcept { return b ? Logic::L1 : Logic::L0; }

/// Converts to bool; X and Z map to false (callers should check
/// is_known() first when it matters).
constexpr bool to_bool(Logic v) noexcept { return v == Logic::L1; }

/// IEEE-1164-style AND: 0 dominates, unknown inputs give X.
Logic logic_and(Logic a, Logic b) noexcept;
/// IEEE-1164-style OR: 1 dominates, unknown inputs give X.
Logic logic_or(Logic a, Logic b) noexcept;
/// XOR: any unknown input gives X.
Logic logic_xor(Logic a, Logic b) noexcept;
/// NOT: X/Z invert to X.
Logic logic_not(Logic a) noexcept;

/// Single-character rendering: '0', '1', 'X', 'Z'.
char logic_char(Logic v) noexcept;

}  // namespace fxg::rtl
