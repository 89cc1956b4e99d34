module rtf/bench

go 1.22

require rtf v0.0.0

replace rtf => ../
