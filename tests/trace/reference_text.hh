/**
 * @file
 * Test-only reference implementation of the deterministic text
 * formatters, exactly as they stood before they were rewritten onto
 * the std::to_chars appenders (common/format.hh): the snprintf journal
 * line and the "%.6f" double of JSON documents.
 *
 * It is kept as a differential oracle: journalLine(), JournalSink and
 * appendFixed6() must print byte for byte what these print, except
 * where formatDouble() is wrong (formatDoubleCutsPoint()). Do not
 * optimise this code; its value is that it is the old, slow,
 * obviously-correct version.
 */

#ifndef TSM_TESTS_TRACE_REFERENCE_TEXT_HH
#define TSM_TESTS_TRACE_REFERENCE_TEXT_HH

#include <string>

#include "trace/trace.hh"

namespace tsm::reference {

/** One event as its canonical journal line (no newline). */
std::string journalLine(const TraceEvent &ev);

/** A JSON double: "%.6f" with trailing zeros trimmed; "null" when not
 *  finite. */
std::string formatDouble(double v);

/**
 * True where formatDouble() is wrong: its 64-byte buffer keeps 63
 * characters, and a "%.6f" text whose sign and integer digits fill
 * them loses its decimal point (and is read as a 10x smaller number
 * once a digit is cut). Shorter texts lose only fractional digits,
 * which are zeros that large, so they still print correctly.
 */
bool formatDoubleCutsPoint(double v);

} // namespace tsm::reference

#endif // TSM_TESTS_TRACE_REFERENCE_TEXT_HH
