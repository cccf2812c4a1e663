# Bad command lines must be refused before anything runs: exit 2 and
# name the offending flag on stderr. Covers integer flags that are
# not a whole number in range, grid flags that a scenario file would
# silently override, and --bench-json without --scenario.
#
#   cmake -DCLI=<jumanji_cli> -DSCENARIO=<json> -P this
function(expect_refused flag)
    execute_process(
        COMMAND ${CLI} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(SEND_ERROR "jumanji_cli ${ARGN}: exit ${rc}, expected 2")
    endif()
    string(FIND "${err}" "${flag}" at)
    if(at EQUAL -1)
        message(SEND_ERROR
            "jumanji_cli ${ARGN}: stderr does not name ${flag}: ${err}")
    endif()
endfunction()

# Integer flags: whole decimal strings in range, 0 is not a seed.
expect_refused(--jobs --jobs -1)
expect_refused(--jobs --jobs 0)
expect_refused(--jobs --jobs 4294967295)
expect_refused(--seed --seed abc)
expect_refused(--seed --seed 0)
expect_refused(--seed --seed 18446744073709551616)
expect_refused(--vms --vms 3x)
expect_refused(--vms --vms 0)
expect_refused(--batch --batch 65)
expect_refused(--mixes --mixes +2)
expect_refused(--heartbeat-ms --heartbeat-ms -5)

# The scenario file defines the grid; these flags would be ignored.
expect_refused(--lc --scenario ${SCENARIO} --lc silo)
expect_refused(--design --scenario ${SCENARIO} --design Jumanji)
expect_refused(--load --scenario ${SCENARIO} --load low)
expect_refused(--vms --scenario ${SCENARIO} --vms 2)
expect_refused(--batch --scenario ${SCENARIO} --batch 2)
expect_refused(--mixes --scenario ${SCENARIO} --mixes 1)
expect_refused(--seed --scenario ${SCENARIO} --seed 5)
expect_refused(--paper-scale --scenario ${SCENARIO} --paper-scale)
expect_refused(--sweep --sweep --scenario ${SCENARIO})
expect_refused(--lc --lc silo --scenario-check ${SCENARIO})

# Timing is defined over a scenario's grid only.
expect_refused(--bench-json --bench-json unused.json)
