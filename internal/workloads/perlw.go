package workloads

import (
	"fmt"

	"interplab/internal/core"
)

// The Perl-analog macro suite: the same kinds of text/file/server programs
// the paper pulled from public archives.

// a2psPerl converts ASCII text to PostScript-ish page output.
func a2psPerl() string {
	return `
open(IN, "text.in") || die "cannot open text.in";
open(OUT, ">text.ps");
print OUT "%!PS-Adobe-1.0\n";
$page = 1;
$line = 0;
$y = 760;
print OUT "%%Page: 1\n";
while ($l = <IN>) {
    chomp($l);
    # Escape PostScript parens (the replacement backslash is literal in
    # this dialect, so a single escape suffices).
    $l =~ s/\(/\(/g;
    $l =~ s/\)/\)/g;
    # Expand tabs.
    while (($i = index($l, "\t")) >= 0) {
        $pad = 8 - ($i % 8);
        $spaces = " " x $pad;
        $l = substr($l, 0, $i) . $spaces . substr($l, $i + 1);
    }
    if (length($l) > 72) {
        $l = substr($l, 0, 72);
    }
    print OUT "36 $y moveto ($l) show\n";
    $y -= 12;
    $line++;
    if ($y < 40) {
        $page++;
        $y = 760;
        print OUT "showpage\n%%Page: $page\n";
    }
}
print OUT "showpage\n%%Trailer\n";
close(IN);
close(OUT);
print "$page pages, $line lines\n";
`
}

// plexusPerl is an HTTP server's request loop over the virtual filesystem.
func plexusPerl() string {
	return `
%types = ("html", "text/html", "gif", "image/gif", "ps", "application/postscript");
%hits = ();
$served = 0;
$errors = 0;
$bytes = 0;
open(LOG, "requests.log") || die "no request log";
open(OUT, ">responses.log");
while ($req = <LOG>) {
    chomp($req);
    if ($req =~ m/^(\w+) (\S+) HTTP/) {
        $method = $1;
        $path = $2;
        if ($method ne "GET") {
            print OUT "501 $path\n";
            $errors++;
            next;
        }
        if ($path eq "/") { $path = "/index.html"; }
        $file = substr($path, 1);
        $ext = "";
        if ($file =~ m/\.(\w+)$/) { $ext = $1; }
        $type = $types{$ext};
        if (!defined($type)) { $type = "text/plain"; }
        if (open(DOC, $file)) {
            $body = "";
            while ($chunk = <DOC>) { $body .= $chunk; }
            close(DOC);
            $n = length($body);
            $bytes += $n;
            $served++;
            $hits{$path}++;
            print OUT "200 $type $n\n";
        } else {
            $errors++;
            print OUT "404 $path\n";
        }
    } else {
        $errors++;
        print OUT "400\n";
    }
}
close(LOG);
close(OUT);
print "$served served, $errors errors, $bytes bytes\n";
foreach $p (sort(keys(%hits))) { print "$p $hits{$p}\n"; }
`
}

// txt2htmlPerl marks up plain text as HTML, dominated by the match
// operator as in the paper's Figure 2.
func txt2htmlPerl() string {
	return `
open(IN, "text.in") || die "cannot open";
open(OUT, ">text.html");
print OUT "<html><body>\n";
$para = 0;
$inpara = 0;
$links = 0;
$nums = 0;
while ($l = <IN>) {
    chomp($l);
    if ($l =~ m/^\s*$/) {
        if ($inpara) { print OUT "</p>\n"; $inpara = 0; }
        next;
    }
    if (!$inpara) { print OUT "<p>"; $inpara = 1; $para++; }
    $l =~ s/&/&amp;/g;
    $l =~ s/</&lt;/g;
    if ($l =~ m/(\w+)\.(html|gif|ps)/) { $links++; }
    if ($l =~ m/\d+/) { $nums++; }
    $l =~ s/(interpreter|machine|cache)/<b>$1<\/b>/g;
    print OUT "$l\n";
}
if ($inpara) { print OUT "</p>\n"; }
print OUT "</body></html>\n";
close(IN);
close(OUT);
print "$para paragraphs, $links links, $nums numbered\n";
`
}

// weblintPerl checks HTML for structural defects.
func weblintPerl() string {
	return `
open(IN, "doc.html") || die "cannot open";
$line = 0;
$errors = 0;
%seen = ();
@stack = ();
$depth = 0;
while ($l = <IN>) {
    $line++;
    $rest = $l;
    while ($rest =~ m/<(\/?)(\w+)([^>]*)>/) {
        $close = $1;
        $tag = lc($2);
        $attrs = $3;
        $seen{$tag}++;
        $pos = index($rest, ">");
        $rest = substr($rest, $pos + 1);
        if ($tag eq "img" && !($attrs =~ m/alt=/)) {
            print "line $line: img without alt\n";
            $errors++;
        }
        if ($tag eq "br" || $tag eq "img" || $tag eq "hr") { next; }
        if ($close eq "") {
            push(@stack, $tag);
            $depth++;
        } else {
            if ($depth == 0) {
                print "line $line: unexpected </$tag>\n";
                $errors++;
            } else {
                $top = pop(@stack);
                $depth--;
                if ($top ne $tag) {
                    print "line $line: <$top> closed by </$tag>\n";
                    $errors++;
                }
            }
        }
    }
}
while ($depth > 0) {
    $top = pop(@stack);
    $depth--;
    print "unclosed <$top>\n";
    $errors++;
}
close(IN);
print "$errors problems in $line lines\n";
foreach $t (sort(keys(%seen))) { print "$t=$seen{$t} "; }
print "\n";
`
}

func perlProg(name, desc, src string) core.Program {
	return core.Program{
		System: core.SysPerl, Name: name, Desc: desc,
		Run: func(ctx *core.Ctx) error {
			installInputs(ctx)
			return runPerl(ctx, Knobs{}, src)
		},
	}
}

// PerlSuite returns the Table 2 Perl programs.
func PerlSuite(scale float64) []core.Program {
	_ = fmt.Sprintf
	return []core.Program{
		perlProg("a2ps", "Convert ASCII file to postscript", a2psPerl()),
		perlProg("plexus", "HTTP server", plexusPerl()),
		perlProg("txt2html", "Convert text to HTML", txt2htmlPerl()),
		perlProg("weblint", "HTML syntax checker", weblintPerl()),
	}
}
