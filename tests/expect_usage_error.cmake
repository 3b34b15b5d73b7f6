# Run one command-line invocation that must be refused as a usage error:
# it exits 2 and its stderr matches EXPECT (the message naming the flag).
#
#   cmake -DEXPECT=<regex> -P expect_usage_error.cmake -- <command> [args...]
if(NOT DEFINED EXPECT)
  message(FATAL_ERROR "expect_usage_error.cmake: -DEXPECT= is required")
endif()

set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_usage_error.cmake: no command after --")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "exited ${code}, expected 2 (usage error)\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match \"${EXPECT}\":\n${err}")
endif()
message(STATUS "usage error as expected: ${err}")
