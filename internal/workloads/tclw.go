package workloads

import "interplab/internal/core"

// The Tcl-analog macro suite: two text tools and five Tk programs, like
// the paper's tcllex/tcltags/demos/hanoi/ical/tkdiff/xf.

// tcllexTcl tokenizes C-ish source by scanning character classes.
func tcllexTcl() string {
	return `
set f [open prog.c]
set src [read $f]
close $f
set i 0
set n [string length $src]
set idents 0
set numbers 0
set puncts 0
set keywords 0
while {$i < $n} {
    set c [string index $src $i]
    if {[regexp {[ \t\n\r]} $c]} { incr i; continue }
    if {[regexp {[a-zA-Z_]} $c]} {
        set start $i
        while {$i < $n && [regexp {[a-zA-Z0-9_]} [string index $src $i]]} { incr i }
        set word [string range $src $start [expr $i - 1]]
        if {$word == "int" || $word == "if" || $word == "return" || $word == "include"} {
            incr keywords
        } else {
            incr idents
        }
        continue
    }
    if {[regexp {[0-9]} $c]} {
        while {$i < $n && [regexp {[0-9]} [string index $src $i]]} { incr i }
        incr numbers
        continue
    }
    incr puncts
    incr i
}
puts "$idents idents, $numbers numbers, $puncts puncts, $keywords keywords"
`
}

// tcltagsTcl generates an emacs-style tags list from function definitions.
func tcltagsTcl() string {
	return `
set f [open prog.c]
set lineno 0
set tags {}
while {[gets $f line] >= 0} {
    incr lineno
    if {[regexp {^int (\w+)\(} $line all name]} {
        lappend tags "$name:$lineno"
    }
    if {[regexp {^(\w+)\(\)} $line all name]} {
        lappend tags "$name:$lineno"
    }
}
close $f
set out [open tags w]
foreach t [lsort $tags] {
    puts $out $t
}
close $out
puts "[llength $tags] tags from $lineno lines"
`
}

// hanoiTkTcl is the Tk towers of hanoi: interpreted recursion, native
// redraws of the pegs on every move.
func hanoiTkTcl(disks int) string {
	return `
canvas .c -width 320 -height 200
pack .c
set moves 0
for {set p 0} {$p < 3} {incr p} { set height($p) 0 }
set n ` + itoa(disks) + `
for {set i 0} {$i < $n} {incr i} {
    set stack(0,$i) [expr $n - $i]
}
set height(0) $n

proc drawpeg {p} {
    global height stack n
    set x [expr 20 + $p * 100]
    .c create rectangle $x 20 [expr $x + 80] 180 -fill 1
    for {set i 0} {$i < $height($p)} {incr i} {
        set d $stack($p,$i)
        .c create rectangle [expr $x + 40 - $d * 5] [expr 160 - $i * 12] [expr $x + 40 + $d * 5] [expr 170 - $i * 12] -fill 3
    }
}

proc redraw {} {
    .c delete all
    drawpeg 0; drawpeg 1; drawpeg 2
    update
}

proc movedisk {from to} {
    global height stack moves
    set d $stack($from,[expr $height($from) - 1])
    incr height($from) -1
    set stack($to,$height($to)) $d
    incr height($to)
    incr moves
    redraw
}

proc hanoi {n from to via} {
    if {$n == 0} { return }
    hanoi [expr $n - 1] $from $via $to
    movedisk $from $to
    hanoi [expr $n - 1] $via $to $from
}

redraw
hanoi $n 0 2 1
puts $moves
if {$moves != [expr (1 << $n) - 1]} { error "wrong move count" }
`
}

// demosTkTcl builds a widget tour and interacts with it.
func demosTkTcl() string {
	return `
wm title . "Widget demo"
frame .menu -height 24
label .menu.title -text "Tk widget demonstration"
pack .menu
pack .menu.title
set clicked 0
frame .body -height 150
pack .body
foreach name {alpha beta gamma delta} {
    button .body.$name -text $name -command "incr clicked"
    pack .body.$name -side left
}
canvas .body.view -width 120 -height 100
pack .body.view -side left
for {set i 0} {$i < 12} {incr i} {
    .body.view create line 0 [expr $i * 8] 119 [expr 99 - $i * 8]
}
.body.view create text 10 50 -text "canvas"
update
.body.alpha invoke
.body.beta invoke
.body.gamma invoke
update
label .status -text "clicked $clicked"
pack .status
update
puts "$clicked clicks, [llength [winfo children .body]] widgets"
`
}

// icalTkTcl renders a month of appointments from a data file.
func icalTkTcl() string {
	return `
canvas .cal -width 320 -height 220
pack .cal
set f [open calendar.dat]
set count 0
while {[gets $f line] >= 0} {
    set parts [split $line " "]
    set m [lindex $parts 0]
    set d [lindex $parts 1]
    set what [lindex $parts 2]
    set appt($m,$d) $what
    incr count
}
close $f
# Draw a 7x5 grid with appointment marks for month 6.
for {set row 0} {$row < 5} {incr row} {
    for {set col 0} {$col < 7} {incr col} {
        set day [expr $row * 7 + $col + 1]
        set x [expr $col * 44 + 4]
        set y [expr $row * 40 + 4]
        .cal create rectangle $x $y [expr $x + 40] [expr $y + 36]
        .cal create text [expr $x + 2] [expr $y + 2] -text $day
        if {[info exists appt(6,$day)]} {
            .cal create rectangle [expr $x + 4] [expr $y + 20] [expr $x + 36] [expr $y + 32] -fill 4
        }
    }
}
update
set marked 0
foreach k [array names appt] {
    if {[regexp {^6,} $k]} { incr marked }
}
puts "$count appointments, $marked in june"
`
}

// tkdiffTcl compares two files and displays the differences.
func tkdiffTcl() string {
	return `
proc readlines {path} {
    set f [open $path]
    set ls {}
    while {[gets $f line] >= 0} { lappend ls $line }
    close $f
    return $ls
}
set a [readlines old.txt]
set b [readlines new.txt]
canvas .view -width 320 -height 200
pack .view
set na [llength $a]
set nb [llength $b]
set max $na
if {$nb > $max} { set max $nb }
set diffs 0
for {set i 0} {$i < $max} {incr i} {
    set la [lindex $a $i]
    set lb [lindex $b $i]
    set y [expr ($i % 24) * 8]
    if {[string compare $la $lb] != 0} {
        incr diffs
        .view create rectangle 0 $y 320 [expr $y + 7] -fill 5
        .view create text 2 $y -text [string range $lb 0 30]
    } else {
        .view create text 2 $y -text [string range $la 0 30]
    }
}
update
puts "$diffs differing lines of $max"
`
}

// xfTkTcl is an interface-builder workalike: it constructs a widget tree
// from a textual specification, then generates code back out of the tree.
func xfTkTcl() string {
	return `
set spec {
    frame .top -
    label .top.head "Generated interface"
    button .top.ok "OK"
    button .top.cancel "Cancel"
    frame .mid -
    label .mid.name "Name:"
    label .mid.value "Value:"
    canvas .mid.preview -
    frame .bottom -
    button .bottom.apply "Apply"
}
set created 0
set nspec [llength $spec]
for {set i 0} {$i < $nspec} {incr i 3} {
    set kind [lindex $spec $i]
    set path [lindex $spec [expr $i + 1]]
    set title [lindex $spec [expr $i + 2]]
    if {[string compare $kind frame] == 0} {
        frame $path -height 60
    } elseif {[string compare $kind canvas] == 0} {
        canvas $path -width 100 -height 50
    } else {
        $kind $path -text $title
    }
    pack $path
    incr created
}
update
# Generate code from the live widget tree.
set code ""
set blanks "                "
proc emit {path depth} {
    global code blanks
    set pad [string range $blanks 0 $depth]
    append code "$pad widget $path\n"
    foreach c [winfo children $path] {
        emit $c [expr $depth + 2]
    }
}
emit . 0
update
set lines [llength [split $code "\n"]]
puts "$created widgets, $lines generated lines"
`
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}

func tclProg(name, desc, src string, withTk bool) core.Program {
	return core.Program{
		System: core.SysTcl, Name: name, Desc: desc,
		Run: func(ctx *core.Ctx) error {
			installInputs(ctx)
			return runTcl(ctx, Knobs{}, src, withTk)
		},
	}
}

// TclSuite returns the Table 2 Tcl programs.
func TclSuite(scale float64) []core.Program {
	disks := 5
	if scale < 0.3 {
		disks = 4
	}
	return []core.Program{
		tclProg("tcllex", "Lexical analysis tool", tcllexTcl(), false),
		tclProg("tcltags", "Generate emacs tags file", tcltagsTcl(), false),
		tclProg("demos", "Tk widget demos", demosTkTcl(), true),
		tclProg("hanoi", "Tk towers of Hanoi (5 disks)", hanoiTkTcl(disks), true),
		tclProg("ical", "Tk interactive calendar program", icalTkTcl(), true),
		tclProg("tkdiff", "Tk interface to diff", tkdiffTcl(), true),
		tclProg("xf", "Tk interface builder", xfTkTcl(), true),
	}
}
