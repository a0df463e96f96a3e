module github.com/flexer-sched/flexer/bench

go 1.22

require github.com/flexer-sched/flexer v0.0.0

replace github.com/flexer-sched/flexer => ../
